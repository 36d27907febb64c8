//go:build !brewsvc_lockstat

// Package lockstat provides the mutex behind the "a warm hit takes zero
// locks" acceptance bar. Every mutex of the specialization service
// (internal/brewsvc: the per-shard admission locks and the cache writer
// locks) and of the specialization manager (internal/specmgr) is a
// lockstat.Mutex, so a count covers every lock a request could touch on
// its way through the service and the manager's entries.
//
// In the default build Mutex is a plain sync.Mutex and counting is
// unavailable. Built with -tags brewsvc_lockstat, Mutex counts every Lock
// process-wide; TestWarmPathZeroLocks snapshots the count around a run of
// warm cache hits and requires the delta to be exactly zero
// (scripts/verify.sh runs it under the tag).
package lockstat

import "sync"

// Mutex is a plain sync.Mutex in this build.
type Mutex = sync.Mutex

// Acquisitions reports that lock counting is disabled in this build.
// Build with -tags brewsvc_lockstat to enable it.
func Acquisitions() (uint64, bool) { return 0, false }
