// Package leaktest asserts that a test leaves no goroutines behind.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check records the goroutine count — after letting stragglers of
// earlier tests wind down — and returns the assertion to call once
// everything the test started should have exited: it retries until the
// count is back at (or below) the baseline, and fails the test with a
// dump of all stacks if it never gets there.
func Check(t testing.TB) func() {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
