package brew

import (
	"fmt"

	"repro/internal/vm"
)

// Mode selects Do's failure semantics.
type Mode uint8

const (
	// ModeSpecialize fails the request on any pipeline error; the caller
	// keeps using the original function.
	ModeSpecialize Mode = iota
	// ModeDegrade never fails: every pipeline error — budget or buffer
	// exhaustion, unsupported constructs, injected faults, internal panics —
	// converts into a degraded Outcome addressing the original function,
	// with the cause wrapped in ErrDegraded (the paper's Section III.D
	// "otherwise, the original function should be executed" applied to
	// every failure mode, guarded requests included).
	ModeDegrade
)

// Request is one specialization request: the single input shape of the
// rewrite entry point Do.
type Request struct {
	// Config declares the rewrite assumptions (NewConfig). Do never
	// mutates it: guarded requests operate on an internal Clone, so a
	// Request is safe to re-submit and to fingerprint for caching.
	Config *Config
	// Fn is the address of the function to specialize.
	Fn uint64
	// Args and FArgs supply the emulated call's parameter setting; only
	// parameters declared known in Config are consulted.
	Args  []uint64
	FArgs []float64
	// Guards, when non-empty, request a guarded specialization: the
	// produced entry is a dispatcher that checks the parameter equalities
	// and falls back to the original function on mismatch (Section III.D).
	// Guarded parameters are implicitly declared ParamKnown with the guard
	// values as the rewrite-time setting.
	Guards []ParamGuard
	// Mode selects the failure semantics (see Mode).
	Mode Mode
}

// Outcome is the single result shape of Do: a successful specialization
// (Result), a guarded dispatcher (Guarded non-nil), or a degraded fallback
// to the original function (Degraded with Reason).
type Outcome struct {
	// Addr is the address to call: the specialized body, the guard
	// dispatcher, or — degraded — the original function. It is always a
	// drop-in replacement for the requested function.
	Addr uint64
	// Result carries the rewrite result. For degraded outcomes it
	// addresses the original function (Result.Degraded set).
	Result *Result
	// Guarded is the dispatcher description for guarded requests (nil for
	// plain or degraded outcomes).
	Guarded *GuardedResult
	// Degraded marks a ModeDegrade fallback; Reason holds the closed-
	// vocabulary degradation reason (degrade.go).
	Degraded bool
	Reason   string
}

// Do generates a specialized drop-in replacement for the function at
// req.Fn, the analogue of the paper's
//
//	newfunc = brew_rewrite(rConf, func, arg1, arg2, ...);
//
// with req.Config as rConf. req.Args and req.FArgs supply the emulated
// call's parameter setting (Section III.B: "The rewriting process
// essentially emulates a call to the function. This requires that a
// parameter setting is provided."); only parameters declared known in the
// Config are consulted. It is the one entry point for plain, guarded
// (req.Guards) and never-fails (ModeDegrade) requests, so every caller
// shares one pipeline, one failure model, and one cacheable request shape
// (Config.Fingerprint plus the known-argument values identify the
// specialization).
//
// Rewriting failure is not catastrophic (Section III.G): on error under
// ModeSpecialize the outcome is nil and the original function remains
// valid. An internal rewriter panic is recovered and reported as
// ErrRewritePanic (or converted to a degraded outcome under ModeDegrade) —
// it can never take the host down. Independent requests may run
// concurrently on one machine: tracing only reads its memory and code
// installation is serialized, but the machine must not execute code
// meanwhile.
func Do(m *vm.Machine, req *Request) (*Outcome, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: nil request", ErrBadConfig)
	}
	var out *Outcome
	var err error
	if req.Config == nil {
		err = fmt.Errorf("%w: nil configuration", ErrBadConfig)
	} else {
		out, err = attempt(m, req)
	}
	if err == nil {
		return out, nil
	}
	if req.Mode != ModeDegrade {
		return nil, err
	}
	reason := DegradeReason(err)
	return &Outcome{
		Addr:     req.Fn,
		Result:   &Result{Addr: req.Fn, Degraded: true},
		Degraded: true,
		Reason:   reason,
	}, fmt.Errorf("%w (%s): %w", ErrDegraded, reason, err)
}

// attempt runs one pipeline pass under the panic-recovery barrier.
func attempt(m *vm.Machine, req *Request) (out *Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("%w: %v", ErrRewritePanic, p)
		}
	}()
	if len(req.Guards) > 0 {
		// The guard augmentation (ParamKnown per guarded parameter) works
		// on a clone so the caller's Config stays untouched.
		gr, gerr := guardedRewrite(m, req.Config.Clone(), req.Fn, req.Guards, req.Args, req.FArgs)
		if gerr != nil {
			return nil, gerr
		}
		return &Outcome{Addr: gr.Addr, Result: gr.Rewrite, Guarded: gr}, nil
	}
	res, rerr := rewrite(m, req.Config, req.Fn, req.Args, req.FArgs)
	if rerr != nil {
		return nil, rerr
	}
	return &Outcome{Addr: res.Addr, Result: res}, nil
}
