package brew_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/brew"
)

// configOp is one recorded mutation of a Config. Replaying a history of
// them on a fresh NewConfig rebuilds the configuration from scratch, whose
// first Fingerprint is computed with no earlier call to lean on.
type configOp struct {
	name  string
	apply func(c *brew.Config)
}

func rebuild(hist []configOp) *brew.Config {
	c := brew.NewConfig()
	for _, op := range hist {
		op.apply(c)
	}
	return c
}

// randomOp draws one mutation reaching every input Fingerprint reads: the
// six setters, every exported field it hashes (the pointed-to Budget edited
// in place included), and the Inject hook it must ignore.
func randomOp(rng *rand.Rand) configOp {
	p := 1 + rng.Intn(7) // one past the last parameter: a setter no-op
	addr := uint64(0x1000 + rng.Intn(8)*0x10)
	n := rng.Intn(64)
	on := rng.Intn(2) == 0
	switch k := rng.Intn(18); k {
	case 0:
		class := brew.ParamClass(rng.Intn(2))
		return configOp{fmt.Sprintf("SetParam(%d,%d)", p, class), func(c *brew.Config) { c.SetParam(p, class) }}
	case 1:
		size := uint64(8 * (1 + n))
		return configOp{fmt.Sprintf("SetParamPtrToKnown(%d,%d)", p, size), func(c *brew.Config) { c.SetParamPtrToKnown(p, size) }}
	case 2:
		class := brew.ParamClass(rng.Intn(2))
		return configOp{fmt.Sprintf("SetFloatParam(%d,%d)", p, class), func(c *brew.Config) { c.SetFloatParam(p, class) }}
	case 3:
		start := uint64(rng.Intn(8)) * 0x100
		end := start + uint64(rng.Intn(4))*0x40 // empty ranges are no-ops
		return configOp{fmt.Sprintf("SetMemRange(%#x,%#x)", start, end), func(c *brew.Config) { c.SetMemRange(start, end) }}
	case 4:
		o := brew.FuncOpts{NoInline: on, BranchesUnknown: rng.Intn(2) == 0, MaxVariants: rng.Intn(3), UnrollFactor: 2 * rng.Intn(2)}
		return configOp{fmt.Sprintf("SetFuncOpts(%#x,%+v)", addr, o), func(c *brew.Config) { c.SetFuncOpts(addr, o) }}
	case 5:
		return configOp{fmt.Sprintf("MarkDynamic(%#x)", addr), func(c *brew.Config) { c.MarkDynamic(addr) }}
	case 6:
		o := brew.FuncOpts{ResultsUnknown: on, UnrollFactor: rng.Intn(3)}
		return configOp{fmt.Sprintf("Defaults=%+v", o), func(c *brew.Config) { c.Defaults = o }}
	case 7:
		return configOp{fmt.Sprintf("Defaults.NoInline=%v", on), func(c *brew.Config) { c.Defaults.NoInline = on }}
	case 8:
		limit := 1 + n
		field := rng.Intn(5)
		return configOp{fmt.Sprintf("limit[%d]=%d", field, limit), func(c *brew.Config) {
			*[]*int{&c.MaxTracedInstrs, &c.MaxBlocks, &c.MaxInlineDepth, &c.MaxVariantsPerAddr, &c.MaxCodeBytes}[field] = limit
		}}
	case 9:
		h := uint64(n) * 0x40
		field := rng.Intn(4)
		return configOp{fmt.Sprintf("handler[%d]=%#x", field, h), func(c *brew.Config) {
			*[]*uint64{&c.EntryHandler, &c.ExitHandler, &c.LoadHandler, &c.StoreHandler}[field] = h
		}}
	case 10:
		return configOp{fmt.Sprintf("Vectorize=%v", on), func(c *brew.Config) { c.Vectorize = on }}
	case 11:
		e := brew.Effort(rng.Intn(2))
		return configOp{fmt.Sprintf("Effort=%v", e), func(c *brew.Config) { c.Effort = e }}
	case 12:
		b := brew.Budget{MaxTracedInstrs: n, MaxEmittedBytes: rng.Intn(64), Deadline: time.Duration(rng.Intn(64)) * time.Microsecond}
		return configOp{fmt.Sprintf("Budget=&%+v", b), func(c *brew.Config) { bb := b; c.Budget = &bb }}
	case 13:
		return configOp{"Budget=nil", func(c *brew.Config) { c.Budget = nil }}
	case 14, 15:
		field := rng.Intn(3)
		return configOp{fmt.Sprintf("Budget[%d]=%d in place", field, n), func(c *brew.Config) {
			if b := c.Budget; b != nil {
				switch field {
				case 0:
					b.MaxTracedInstrs = n
				case 1:
					b.MaxEmittedBytes = n
				default:
					b.Deadline = time.Duration(n) * time.Microsecond
				}
			}
		}}
	case 16:
		return configOp{"Inject=hook", func(c *brew.Config) { c.Inject = func(string) error { return errors.New("injected") } }}
	default:
		return configOp{"Inject=nil", func(c *brew.Config) { c.Inject = nil }}
	}
}

func historyString(hist []configOp) string {
	s := ""
	for _, op := range hist {
		s += "\n\t" + op.name
	}
	return s
}

// TestFingerprintNeverStale holds Fingerprint to the value of a freshly
// built configuration at every step of seeded mutation sequences: however
// often a configuration was fingerprinted before, after any setter, any
// change to an exported field (a Budget edited through its pointer
// included), a Clone and a mutation of either side, the next Fingerprint
// equals that of NewConfig with the same mutations replayed. Inject edits
// must leave the value where it was.
func TestFingerprintNeverStale(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Two configurations: a Clone op copies one side over the
			// other, after which the two histories diverge.
			cfgs := [2]*brew.Config{brew.NewConfig(), brew.NewConfig()}
			hists := [2][]configOp{}
			for step := 0; step < 60; step++ {
				i := rng.Intn(2)
				if rng.Intn(10) == 0 {
					cfgs[1-i] = cfgs[i].Clone()
					hists[1-i] = append([]configOp(nil), hists[i]...)
				} else {
					op := randomOp(rng)
					before := cfgs[i].Fingerprint()
					op.apply(cfgs[i])
					hists[i] = append(hists[i], op)
					if op.name == "Inject=hook" || op.name == "Inject=nil" {
						if got := cfgs[i].Fingerprint(); got != before {
							t.Fatalf("seed %d step %d: %s moved the fingerprint %#x -> %#x", seed, step, op.name, before, got)
						}
					}
				}
				// Check both sides, in a seeded order and sometimes twice,
				// so a value remembered by one call meets later mutations.
				for j := 0; j < 2; j++ {
					k := (i + j) % 2
					if rng.Intn(4) == 0 {
						continue
					}
					want := rebuild(hists[k]).Fingerprint()
					for r := 0; r <= rng.Intn(2); r++ {
						if got := cfgs[k].Fingerprint(); got != want {
							t.Fatalf("seed %d step %d, config %d: Fingerprint %#x, rebuilt %#x after:%s",
								seed, step, k, got, want, historyString(hists[k]))
						}
					}
				}
			}
		}
	})

	// Goroutines fingerprint one shared configuration while others clone
	// it and mutate their private clones: the shared value never moves,
	// and each clone tracks its own history (run under -race). Each round
	// starts them together on a configuration nobody has fingerprinted, so
	// they also race to remember its first value.
	t.Run("concurrent", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		var base []configOp
		for len(base) < 24 {
			base = append(base, randomOp(rng))
		}
		want := rebuild(base).Fingerprint()

		const workers, rounds = 4, 50
		for r := 0; r < rounds; r++ {
			shared := rebuild(base)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				var mut []configOp
				for j, n := 0, 1+rng.Intn(4); j < n; j++ {
					mut = append(mut, randomOp(rng))
				}
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 10; i++ {
						if got := shared.Fingerprint(); got != want {
							t.Errorf("shared Fingerprint %#x, want %#x", got, want)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					<-start
					c := shared.Clone()
					if got := c.Fingerprint(); got != want {
						t.Errorf("fresh clone Fingerprint %#x, want %#x", got, want)
						return
					}
					for _, op := range mut {
						op.apply(c)
					}
					hist := append(append([]configOp(nil), base...), mut...)
					if got, w := c.Fingerprint(), rebuild(hist).Fingerprint(); got != w {
						t.Errorf("mutated clone Fingerprint %#x, rebuilt %#x after:%s", got, w, historyString(hist))
					}
				}()
			}
			close(start)
			wg.Wait()
		}
	})
}
