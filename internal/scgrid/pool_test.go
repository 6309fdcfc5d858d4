package scgrid

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scverify/internal/scserve"
)

// TestPoolInFlightAccountingUnderRace pins the pool's client-side slot
// accounting, which the scvet guardedby/atomicmix audit walked without
// finding a hole: tryAcquire is a CAS loop, release is a plain Add(-1),
// and every acquire path (p2c, least-loaded fallback, pinned) pairs the
// two exactly once. The test hammers acquire/release from many
// goroutines — mixed pinned and unpinned, with shedding under a short
// queue deadline — and asserts the per-backend in-flight gauge never
// leaves [0, MaxInFlight] at any sampled instant, and returns to exactly
// zero once the storm ends. Run under -race this doubles as the data-race
// regression for the backend health fields the storm's ejections touch.
func TestPoolInFlightAccountingUnderRace(t *testing.T) {
	const capPer = 4
	cfg := Config{MaxInFlight: capPer, QueueWait: 50 * time.Millisecond, ProbeInterval: -1, RetryConfig: scserve.RetryConfig{Seed: 1}}.withDefaults()
	p := newPool([]string{"a:1", "b:1", "c:1"}, cfg)
	defer p.close()

	var violations atomic.Int64
	stopSample := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			for _, b := range p.backends {
				if n := b.inflight.Load(); n < 0 || n > capPer {
					violations.Add(1)
				}
			}
			runtime.Gosched()
		}
	}()

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				token := ""
				if i%3 == 0 {
					// A small token space so pinned sessions collide on
					// rendezvous backends and contend for the same slots.
					token = fmt.Sprintf("tok-%d", (g+i)%5)
				}
				b, err := p.acquire(token, cfg.QueueWait)
				if err != nil {
					continue // shed under contention is a legal answer
				}
				if n := b.inflight.Load(); n < 1 || n > capPer {
					t.Errorf("in-flight gauge %d outside [1, %d] while holding a slot", n, capPer)
				}
				if i%2 == 0 {
					runtime.Gosched()
				}
				b.release()
			}
		}(g)
	}
	wg.Wait()
	close(stopSample)
	<-samplerDone

	if n := violations.Load(); n != 0 {
		t.Errorf("sampler saw the in-flight gauge outside [0, %d] %d times", capPer, n)
	}
	for _, b := range p.backends {
		if n := b.inflight.Load(); n != 0 {
			t.Errorf("backend %s in-flight gauge %d after storm; want 0 (leaked or double-released slot)", b.addr, n)
		}
	}
	if n := p.waiters.Load(); n != 0 {
		t.Errorf("waiter gauge %d after storm; want 0", n)
	}
}
