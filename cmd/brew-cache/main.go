// brew-cache is the operator tool for the persistent rewrite store
// (internal/spstore): list the records a store directory holds, verify
// their framing/checksums (optionally quarantining what fails), and
// garbage-collect the quarantine, the records an earlier build's format
// left behind, and the oldest live records down to a byte budget.
//
//	brew-cache -store DIR ls            # live + quarantined records, and why quarantined
//	brew-cache -store DIR fsck          # verify; exit 1 if anything is corrupt
//	brew-cache -store DIR fsck -repair  # verify and quarantine what fails
//	brew-cache -store DIR gc -max 64M   # drop quarantine and old-format records, evict LRU over budget
//	brew-cache -store DIR ls -json      # machine-readable listings
//
// fsck exits 1 when corruption is found (repaired or not), so it slots
// into health checks; ls and gc exit 1 only on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/spstore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool: arguments in, listing on stdout, exit status out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("brew-cache", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir    = fs.String("store", "", "store directory (required)")
		asJSON = fs.Bool("json", false, "machine-readable output")
		repair = fs.Bool("repair", false, "fsck: quarantine records that fail verification")
		max    = fs.String("max", "", "gc: live-tier byte budget (supports K/M/G suffixes; empty = quarantine sweep only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cmd := fs.Arg(0)
	if cmd != "" {
		// Allow flags after the subcommand too (brew-cache -store DIR gc -max 64M).
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	if *dir == "" || cmd == "" {
		fmt.Fprintln(stderr, "usage: brew-cache -store DIR [-json] ls|fsck|gc")
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "brew-cache:", err)
		return 1
	}
	printJSON := func(v any) int {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	st, err := spstore.Open(spstore.Options{Dir: *dir})
	if err != nil {
		return fail(err)
	}
	defer st.Close()

	switch cmd {
	case "ls":
		infos, err := st.List()
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			return printJSON(infos)
		}
		why := map[string]uint64{} // quarantined records by reason
		for _, in := range infos {
			if in.Quarantined {
				reason := in.Reason
				if reason == "" {
					reason = "unknown"
				}
				why[reason]++
				fmt.Fprintf(stdout, "quar %s  %7dB  reason=%s\n", in.Key, in.Size, reason)
				continue
			}
			if in.OldFormat {
				fmt.Fprintf(stdout, "old  %s  %7dB  (earlier format: gc removes it)\n", in.Key, in.Size)
				continue
			}
			fmt.Fprintf(stdout, "live %s  %7dB  fn=%#x effort=%s code=%dB guards=%d gen=%d\n",
				in.Key, in.Size, in.Fn, in.Effort, in.CodeSize, in.Guards, in.Generation)
		}
		if len(why) > 0 {
			fmt.Fprintf(stdout, "quarantined by reason: %s\n", spstore.TallyText(why))
		}
		fmt.Fprintf(stdout, "%d records, generation %d\n", len(infos), st.Generation())
	case "fsck":
		rep, err := st.Fsck(*repair)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			if rc := printJSON(rep); rc != 0 {
				return rc
			}
		} else {
			for _, bad := range rep.Bad {
				fmt.Fprintf(stdout, "corrupt %s: %s\n", bad.Key, bad.Err)
			}
			fmt.Fprintf(stdout, "checked %d, corrupt %d, quarantined now %d, in quarantine %d\n",
				rep.Checked, rep.Corrupt, rep.Quarantined, rep.InQuarantine)
		}
		if rep.Corrupt > 0 {
			return 1
		}
	case "gc":
		budget, err := parseBytes(*max)
		if err != nil {
			return fail(err)
		}
		rep, err := st.GC(budget)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			return printJSON(rep)
		}
		fmt.Fprintf(stdout, "dropped %d quarantined + %d old-format + %d live (LRU), freed %dB, %dB live\n",
			rep.QuarantineDropped, rep.OldFormatDropped, rep.LRUDropped, rep.BytesFreed, rep.BytesLive)
	default:
		return fail(fmt.Errorf("unknown command %q (want ls, fsck or gc)", cmd))
	}
	return 0
}

// parseBytes parses "67108864", "64M", "1G", "512K" (binary multiples).
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad -max %q", s)
	}
	return n * mult, nil
}
