package native

import (
	"sync"
	"syscall"
	"time"
)

// The reaper is a package-level registry of live simulator subprocesses.
// Every Engine registers its child at spawn and deregisters it once the
// child is waited on, so a daemon shutting down (or a test asserting
// cleanliness) can kill everything the tier has spawned — including
// children orphaned by error paths that never reached Engine.Close.
//
// Children are spawned in their own process group (Setpgid), so the kill
// targets the group: a simulator that forked helpers cannot escape.

type reapEntry struct {
	pid   int
	done  <-chan struct{} // closed once the child has been waited on
	owner *Cache          // the launching cache; nil for a bare Launch
}

var reaper struct {
	sync.Mutex
	procs map[*reapEntry]struct{}
}

func reaperAdd(e *reapEntry) {
	reaper.Lock()
	if reaper.procs == nil {
		reaper.procs = make(map[*reapEntry]struct{})
	}
	reaper.procs[e] = struct{}{}
	reaper.Unlock()
}

func reaperRemove(e *reapEntry) {
	reaper.Lock()
	delete(reaper.procs, e)
	reaper.Unlock()
}

// Live returns the number of registered (not yet reaped) subprocesses.
func Live() int {
	reaper.Lock()
	defer reaper.Unlock()
	return len(reaper.procs)
}

// KillAll terminates every registered simulator subprocess: SIGTERM to each
// process group, a bounded wait for the children to be reaped, then SIGKILL
// for the stragglers and a final bounded wait. It returns the number of
// processes it had to signal. Engines whose children die here observe it as
// a subprocess crash (sticky error), which is the honest outcome for any
// call issued after shutdown began.
func KillAll(timeout time.Duration) int { return killAll(timeout, nil) }

// KillAll is the package-level KillAll for the children this cache
// launched; other caches' children keep running.
func (c *Cache) KillAll(timeout time.Duration) int { return killAll(timeout, c) }

// killAll kills the children owner launched, or every child for nil.
func killAll(timeout time.Duration, owner *Cache) int {
	reaper.Lock()
	snapshot := make([]*reapEntry, 0, len(reaper.procs))
	for e := range reaper.procs {
		if owner == nil || e.owner == owner {
			snapshot = append(snapshot, e)
		}
	}
	reaper.Unlock()
	if len(snapshot) == 0 {
		return 0
	}
	for _, e := range snapshot {
		syscall.Kill(-e.pid, syscall.SIGTERM)
	}
	if !waitReaped(snapshot, timeout) {
		for _, e := range snapshot {
			syscall.Kill(-e.pid, syscall.SIGKILL)
		}
		waitReaped(snapshot, timeout)
	}
	for _, e := range snapshot {
		reaperRemove(e)
	}
	return len(snapshot)
}

func waitReaped(entries []*reapEntry, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, e := range entries {
		select {
		case <-e.done:
		case <-deadline.C:
			return false
		}
	}
	return true
}
