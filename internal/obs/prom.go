package obs

import (
	"fmt"
	"io"
)

// WriteProm renders the observer in Prometheus text exposition format:
// the per-stage/per-tier span statistics as
// brew_span_ns{stage=...,tier=...,quantile=...} summaries, then the flight
// recorder's sequence number as brew_flight_recorder_seq. Output is
// deterministic: the tracer snapshots in sorted order.
func (o *Observer) WriteProm(w io.Writer) error {
	stages := o.Tracer.Snapshot()
	if len(stages) > 0 {
		fmt.Fprintf(w, "# TYPE brew_span_ns summary\n")
		for _, s := range stages {
			lbl := fmt.Sprintf("stage=%q,tier=%q", s.StageS, s.TierS)
			fmt.Fprintf(w, "brew_span_ns{%s,quantile=\"0.5\"} %d\n", lbl, s.P50NS)
			fmt.Fprintf(w, "brew_span_ns{%s,quantile=\"0.99\"} %d\n", lbl, s.P99NS)
			fmt.Fprintf(w, "brew_span_ns{%s,quantile=\"0.999\"} %d\n", lbl, s.P999NS)
			fmt.Fprintf(w, "brew_span_ns_sum{%s} %d\n", lbl, s.SumNS)
			fmt.Fprintf(w, "brew_span_ns_count{%s} %d\n", lbl, s.Count)
		}
	}
	fmt.Fprintf(w, "# TYPE brew_flight_recorder_seq counter\nbrew_flight_recorder_seq %d\n",
		o.Recorder.Seq())
	return nil
}
