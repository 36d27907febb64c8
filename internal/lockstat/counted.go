//go:build brewsvc_lockstat

package lockstat

import (
	"sync"
	"sync/atomic"
)

// acqs counts every Mutex.Lock call process-wide.
var acqs atomic.Uint64

// Mutex is a counted mutex: Lock bumps the process-wide acquisition
// counter before acquiring. It implements sync.Locker, so sync.NewCond
// accepts it; Cond.Wait re-acquisitions are counted too (they are real
// lock traffic).
type Mutex struct {
	mu sync.Mutex
}

func (m *Mutex) Lock() {
	acqs.Add(1)
	m.mu.Lock()
}

func (m *Mutex) Unlock() { m.mu.Unlock() }

// Acquisitions returns the number of Mutex acquisitions since process
// start and true.
func Acquisitions() (uint64, bool) { return acqs.Load(), true }
