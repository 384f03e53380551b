package cluster

import (
	"testing"

	"cubicleos/internal/cubicle"
)

// The three backoff loops cubicle.Backoff replaced, kept as references.

// supervisorBackoff is the supervisor's quarantine backoff for the n-th
// consecutive fault.
func supervisorBackoff(base, factor, max uint64, n int) uint64 {
	b := base
	if factor > 1 {
		for i := 1; i < n; i++ {
			if b >= max/factor {
				b = max
				break
			}
			b *= factor
		}
	}
	if max > 0 && b > max {
		b = max
	}
	return b
}

// retryBackoffs is the sequence RetryContained charged before each of its
// first n retries.
func retryBackoffs(base, factor, max uint64, n int) []uint64 {
	var out []uint64
	backoff := base
	for attempt := 1; attempt <= n; attempt++ {
		if max > 0 && backoff > max {
			backoff = max
		}
		out = append(out, backoff)
		if factor > 1 {
			backoff *= factor
		}
	}
	return out
}

// legBackoff is the cluster's backoff before retry leg attempts+1.
func legBackoff(base, factor, max uint64, attempts int) uint64 {
	b := base
	for i := 1; i < attempts; i++ {
		if b >= max/factor {
			return max
		}
		b *= factor
	}
	if b > max {
		b = max
	}
	return b
}

// TestOneBackoffMatchesTheOldLoops: for every backoff policy in the tree,
// cubicle.Backoff returns the sequence each loop it replaced returned.
func TestOneBackoffMatchesTheOldLoops(t *testing.T) {
	restart, retry := cubicle.DefaultRestartPolicy(), cubicle.DefaultRetryPolicy()
	type policy struct{ base, factor, max uint64 }
	supervised := map[string]policy{
		"DefaultRestartPolicy":               {restart.BackoffBase, restart.BackoffFactor, restart.BackoffMax},
		"cluster restart":                    {8_000_000, restart.BackoffFactor, restart.BackoffMax},
		"TestSupervisorBackoffCap":           {100, 2, 1000},
		"TestSupervisorBackoffCap, overflow": {100, 2, 1 << 63},
	}
	retried := map[string]policy{
		"DefaultRetryPolicy":  {retry.BackoffBase, retry.BackoffFactor, retry.BackoffMax},
		"TestRetryContained*": {1_000, 2, 10_000},
	}
	const n = 80
	for name, p := range supervised {
		for i := 1; i <= n; i++ {
			if got, want := cubicle.Backoff(p.base, p.factor, p.max, i), supervisorBackoff(p.base, p.factor, p.max, i); got != want {
				t.Errorf("%s: Backoff(%d) = %d, the supervisor's loop %d", name, i, got, want)
			}
		}
	}
	for name, p := range retried {
		for i, want := range retryBackoffs(p.base, p.factor, p.max, 12) {
			if got := cubicle.Backoff(p.base, p.factor, p.max, i+1); got != want {
				t.Errorf("%s: Backoff(%d) = %d, RetryContained's loop %d", name, i+1, got, want)
			}
		}
	}
	for i := 1; i <= n; i++ {
		if got, want := cubicle.Backoff(backoffBase, backoffFactor, backoffMax, i), legBackoff(backoffBase, backoffFactor, backoffMax, i); got != want {
			t.Errorf("cluster legs: Backoff(%d) = %d, the cluster's loop %d", i, got, want)
		}
	}
}
