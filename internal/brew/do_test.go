package brew_test

import (
	"errors"
	"testing"

	"repro/internal/brew"
)

// TestDoPlain: a plain request returns the specialized body as Result.
func TestDoPlain(t *testing.T) {
	m, im := load(t, `
add2:
    mov r0, r1
    add r0, r2
    ret
`)
	fn := im.MustEntry("add2")
	cfg := brew.NewConfig().SetParam(2, brew.ParamKnown)
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Args: []uint64{0, 5}})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if out.Result == nil || out.Guarded != nil || out.Degraded {
		t.Fatalf("unexpected outcome shape: %+v", out)
	}
	if out.Addr != out.Result.Addr {
		t.Fatalf("Addr %#x != Result.Addr %#x", out.Addr, out.Result.Addr)
	}
	got, err := m.Call(out.Addr, 37)
	if err != nil || got != 42 {
		t.Fatalf("rewritten(37) = %d, %v; want 42", got, err)
	}
}

// TestDoGuarded: Request.Guards produces a dispatcher, and the caller's
// Config is left untouched (Do clones before the ParamKnown augmentation).
func TestDoGuarded(t *testing.T) {
	m, im := load(t, `
scale:
    mov r0, r1
    imul r0, r2
    ret
`)
	fn := im.MustEntry("scale")
	cfg := brew.NewConfig()
	before := cfg.Fingerprint()

	out, err := brew.Do(m, &brew.Request{
		Config: cfg,
		Fn:     fn,
		Guards: []brew.ParamGuard{{Param: 2, Value: 3}},
	})
	if err != nil {
		t.Fatalf("Do guarded: %v", err)
	}
	if out.Guarded == nil || out.Result == nil {
		t.Fatalf("guarded outcome missing parts: %+v", out)
	}
	if out.Addr != out.Guarded.Addr {
		t.Fatalf("Addr %#x != Guarded.Addr %#x", out.Addr, out.Guarded.Addr)
	}
	if cfg.Fingerprint() != before {
		t.Fatal("Do mutated the caller's Config")
	}
	if class, _ := cfg.IntParamClass(2); class != brew.ParamUnknown {
		t.Fatal("guard augmentation leaked into the caller's Config")
	}
	// Guard hit takes the specialized path, miss falls back to the original.
	for _, tc := range []struct{ a, b, want uint64 }{{7, 3, 21}, {7, 5, 35}} {
		got, err := m.Call(out.Addr, tc.a, tc.b)
		if err != nil || got != tc.want {
			t.Fatalf("dispatch(%d,%d) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
}

// TestDoModeDegrade: any pipeline failure converts to a callable degraded
// outcome with the closed-vocabulary reason, wrapping ErrDegraded.
func TestDoModeDegrade(t *testing.T) {
	m, im := load(t, `
id:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("id")
	cfg := brew.NewConfig()
	cfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			return brew.ErrUnsupported
		}
		return nil
	}
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn, Mode: brew.ModeDegrade})
	if !errors.Is(err, brew.ErrDegraded) || !errors.Is(err, brew.ErrUnsupported) {
		t.Fatalf("error = %v; want ErrDegraded wrapping ErrUnsupported", err)
	}
	if out == nil || !out.Degraded || out.Reason != brew.ReasonUnsupported {
		t.Fatalf("outcome = %+v; want degraded/unsupported", out)
	}
	if out.Addr != fn || out.Result == nil || !out.Result.Degraded {
		t.Fatalf("degraded outcome must address the original: %+v", out)
	}
	got, cerr := m.Call(out.Addr, 9)
	if cerr != nil || got != 9 {
		t.Fatalf("degraded call = %d, %v; want 9", got, cerr)
	}
}

// TestDoModeSpecializeFails: without ModeDegrade the same failure is a
// plain error and a nil outcome.
func TestDoModeSpecializeFails(t *testing.T) {
	m, im := load(t, `
id:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("id")
	cfg := brew.NewConfig()
	cfg.Inject = func(site string) error {
		if site == brew.SiteTrace {
			return brew.ErrUnsupported
		}
		return nil
	}
	out, err := brew.Do(m, &brew.Request{Config: cfg, Fn: fn})
	if out != nil || !errors.Is(err, brew.ErrUnsupported) {
		t.Fatalf("Do = %+v, %v; want nil outcome + ErrUnsupported", out, err)
	}
}

// TestDoBadRequest: refusals and their ModeDegrade conversion.
func TestDoBadRequest(t *testing.T) {
	m, im := load(t, `
id:
    mov r0, r1
    ret
`)
	fn := im.MustEntry("id")

	if _, err := brew.Do(m, nil); !errors.Is(err, brew.ErrBadConfig) {
		t.Fatalf("Do(nil) error = %v; want ErrBadConfig", err)
	}
	if out, err := brew.Do(m, &brew.Request{Fn: fn}); out != nil || !errors.Is(err, brew.ErrBadConfig) {
		t.Fatalf("Do(nil config) = %+v, %v; want nil + ErrBadConfig", out, err)
	}
	// ModeDegrade converts even the nil-config refusal into a degraded
	// outcome (there is a function to fall back to).
	out, err := brew.Do(m, &brew.Request{Fn: fn, Mode: brew.ModeDegrade})
	if !errors.Is(err, brew.ErrDegraded) || out == nil || !out.Degraded ||
		out.Addr != fn || out.Reason != brew.ReasonBadConfig {
		t.Fatalf("Do(nil config, ModeDegrade) = %+v, %v", out, err)
	}
	// A zero-value Config still fails validation through the guarded
	// clone path: Clone preserves nil maps.
	if out, err := brew.Do(m, &brew.Request{
		Config: &brew.Config{},
		Fn:     fn,
		Guards: []brew.ParamGuard{{Param: 1, Value: 1}},
	}); out != nil || !errors.Is(err, brew.ErrBadConfig) {
		t.Fatalf("Do(zero config, guarded) = %+v, %v; want ErrBadConfig", out, err)
	}
}
