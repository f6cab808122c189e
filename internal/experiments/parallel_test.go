package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCircuit checks the fan-out helper the table runners share:
// results land at their own index, the earliest circuit's error wins,
// and at most min(GOMAXPROCS, 4) calls run at once.
func TestForEachCircuit(t *testing.T) {
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	limit := runtime.GOMAXPROCS(0)
	if limit > 4 {
		limit = 4
	}

	got := make([]string, len(names))
	var running, peak int32
	err := forEachCircuit(names, func(i int, name string) error {
		n := atomic.AddInt32(&running, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&running, -1)
		got[i] = name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if got[i] != name {
			t.Errorf("result %d = %q, want %q", i, got[i], name)
		}
	}
	if peak < 1 || int(peak) > limit {
		t.Errorf("peak concurrency %d, want 1..%d", peak, limit)
	}

	// Circuit 3 fails late and circuit 9 at once; circuit 3's error is
	// returned because it comes first in the list.
	err = forEachCircuit(names, func(i int, _ string) error {
		switch i {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return errors.New("c3 failed")
		case 9:
			return errors.New("c9 failed")
		}
		return nil
	})
	if err == nil || err.Error() != "c3 failed" {
		t.Errorf("err = %v, want c3's", err)
	}
}
