package brew

import (
	"reflect"
	"testing"
)

// TestShallowCopyCopiesEveryField guards the field list of shallowCopy,
// which Clone and withBudget use in place of a struct copy (the memo's
// atomic pointer forbids one): with every field of the original set, every
// field of the copy but the memo must be set too. A new Config field fails
// here until both this test and shallowCopy name it.
func TestShallowCopyCopiesEveryField(t *testing.T) {
	c := NewConfig().
		SetParam(1, ParamKnown).
		SetFloatParam(1, ParamKnown).
		SetMemRange(0x100, 0x200).
		SetFuncOpts(0x1000, FuncOpts{NoInline: true}).
		MarkDynamic(0x2000)
	c.Defaults = FuncOpts{ResultsUnknown: true}
	c.EntryHandler, c.ExitHandler, c.LoadHandler, c.StoreHandler = 1, 2, 3, 4
	c.Budget = &Budget{MaxTracedInstrs: 1}
	c.Inject = func(string) error { return nil }
	c.Vectorize = true
	c.Effort = EffortQuick
	_ = c.Fingerprint()
	memoField := map[string]bool{"fp": true, "memoUsed": true, "memo": true}

	orig, cp := reflect.ValueOf(c).Elem(), reflect.ValueOf(c.shallowCopy()).Elem()
	for i := 0; i < orig.NumField(); i++ {
		name := orig.Type().Field(i).Name
		if orig.Field(i).IsZero() {
			t.Fatalf("field %s is unset in the original; set it above", name)
		}
		if !memoField[name] && cp.Field(i).IsZero() {
			t.Errorf("shallowCopy does not copy field %s", name)
		}
	}
}

// TestCloneCarriesFingerprintMemo: a clone of a fingerprinted
// configuration starts with the original's memo, so its first Fingerprint
// (the service's flight copies) does not hash again.
func TestCloneCarriesFingerprintMemo(t *testing.T) {
	c := NewConfig().SetParam(1, ParamKnown)
	want := c.Fingerprint()
	m := c.Clone().fp.Load()
	if m == nil || m.fp != want || m.gen != c.gen || m.in != c.fpInputs() {
		t.Fatalf("clone memo %+v, want the original's (%#x)", m, want)
	}
}
