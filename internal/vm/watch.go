package vm

// Watch is one write-watchpoint: OnHit fires for every architectural store
// whose byte range overlaps [Start, End), including stores that merely
// straddle a boundary of the range. The specialization manager arms
// watchpoints over frozen (declared-known) memory so a violated assumption
// deoptimizes the stale specialized code before it can be called again.
//
// OnHit runs synchronously inside the store path, before the emulated
// instruction completes. It may patch JIT code and remove watchpoints
// (including its own), but must not execute machine code on this machine.
type Watch struct {
	Start, End uint64
	OnHit      func(w *Watch, addr uint64, size int)

	// Tag is free for the owner (e.g. the specmgr entry the watch guards).
	Tag any
}

// AddWatch registers a write-watchpoint over [start, end) and returns its
// handle. Watch mutations require the same external synchronization as any
// other machine mutation: they must not race machine execution, and
// concurrent managers must serialize among themselves.
func (m *Machine) AddWatch(start, end uint64, onHit func(w *Watch, addr uint64, size int)) *Watch {
	w := &Watch{Start: start, End: end, OnHit: onHit}
	// Copy-on-write: hitWatches iterates a snapshot, so a handler removing
	// or adding watches mid-iteration never mutates the slice under it.
	ws := make([]*Watch, 0, len(m.watches)+1)
	ws = append(ws, m.watches...)
	m.watches = append(ws, w)
	return w
}

// RemoveWatch deregisters a watchpoint. Removing a watch that is not
// installed is a no-op.
func (m *Machine) RemoveWatch(w *Watch) {
	if w == nil || len(m.watches) == 0 {
		return
	}
	ws := make([]*Watch, 0, len(m.watches))
	for _, x := range m.watches {
		if x != w {
			ws = append(ws, x)
		}
	}
	if len(ws) == 0 {
		ws = nil
	}
	m.watches = ws
}

// Watches returns the installed watchpoints (shared slice; do not mutate).
func (m *Machine) Watches() []*Watch { return m.watches }

// hitWatches dispatches one store to every overlapping watchpoint and
// reports whether any handler ran. The overlap test is [addr, addr+size) ∩
// [Start, End) ≠ ∅, so a store straddling a region edge still triggers the
// watch.
func (m *Machine) hitWatches(addr uint64, size int) (hit bool) {
	end := addr + uint64(size)
	for _, w := range m.watches {
		if addr < w.End && end > w.Start && w.OnHit != nil {
			w.OnHit(w, addr, size)
			hit = true
		}
	}
	return hit
}

// FreeJIT releases a JIT allocation (a rewritten body, dispatcher or entry
// stub) under the machine's JIT lock, so releases may race concurrent
// InstallJIT calls (the specialization manager evicts while rewrites run).
func (m *Machine) FreeJIT(addr uint64) error {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	return m.JITAlloc.Free(addr)
}

// JITFreeBytes returns the free code-buffer space under the JIT lock, so
// concurrent installs and releases cannot tear the reading (the direct
// JITAlloc accessors are only safe on a quiescent machine). Leak checks
// compare it against a baseline taken before any specialization.
func (m *Machine) JITFreeBytes() uint64 {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	return m.JITAlloc.FreeBytes()
}

// JITLiveBytes is JITFreeBytes for the currently allocated total.
func (m *Machine) JITLiveBytes() uint64 {
	m.jitMu.Lock()
	defer m.jitMu.Unlock()
	return m.JITAlloc.LiveBytes()
}
