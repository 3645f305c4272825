package opcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOrComputeSingleflight(t *testing.T) {
	c := New()
	var computes atomic.Int64
	var wg sync.WaitGroup
	const callers = 16
	vals := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d saw %v, want 42", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, 1 entry", st, callers-1)
	}
	if got := st.HitRate(); got != float64(callers-1)/float64(callers) {
		t.Fatalf("hit rate = %v, want %v", got, float64(callers-1)/float64(callers))
	}
}

func TestGetOrComputeHitFlag(t *testing.T) {
	c := New()
	_, hit, _ := c.GetOrCompute("k", func() (any, error) { return 1, nil })
	if hit {
		t.Fatal("first call reported a hit")
	}
	v, hit, _ := c.GetOrCompute("k", func() (any, error) { return 2, nil })
	if !hit || v != 1 {
		t.Fatalf("second call: hit=%v v=%v, want hit=true v=1", hit, v)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New()
	_, _, err := c.GetOrCompute("k", func() (any, error) { return nil, fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("expected compute error")
	}
	v, hit, err := c.GetOrCompute("k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after error: v=%v hit=%v err=%v, want fresh compute", v, hit, err)
	}
}
