package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// TestFinishedJobsDropExec: every way a job can finish — a leader that ran,
// its coalesced follower, a queued leader withdrawn by DELETE, and a failed
// run — leaves the record without its exec closure, so the up to
// maxJobRecords retained records pin no input tensors.
func TestFinishedJobsDropExec(t *testing.T) {
	s := mustNew(t, Config{Runners: 1, QueueDepth: 8, Workers: 1, CacheSize: -1})
	defer drainServer(t, s)
	release := parkRunner(t, s)

	mk := func(key string, err error) *job {
		return s.newJob(key, 0, false,
			func(ctx context.Context, _ *pool.Pool, _ *metrics.Collector) (*core.Decomposition, error) {
				if err != nil {
					return nil, err
				}
				return &core.Decomposition{Fit: 0.5}, nil
			})
	}
	leader, follower := mk("lead", nil), mk("lead", nil)
	withdrawn, failed := mk("withdraw", nil), mk("fail", errors.New("boom"))
	for _, j := range []*job{leader, follower, withdrawn, failed} {
		if _, err := s.admitOrCoalesce(j); err != nil {
			t.Fatal(err)
		}
	}
	if !follower.coalesced {
		t.Fatal("second identical submission did not coalesce")
	}

	// Withdraw the queued job the way the DELETE handler does.
	withdrawn.userCancelled.Store(true)
	withdrawn.cancel()
	s.withdraw(withdrawn)
	close(release)

	for _, c := range []struct {
		j     *job
		state string
	}{
		{leader, StateDone},
		{follower, StateDone},
		{withdrawn, StateCancelled},
		{failed, StateFailed},
	} {
		waitJobState(t, c.j, c.state)
		c.j.mu.Lock()
		exec := c.j.exec
		c.j.mu.Unlock()
		if exec != nil {
			t.Errorf("%s job %s kept its exec closure after finishing", c.state, c.j.id)
		}
	}
}
