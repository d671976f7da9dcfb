package main

import (
	"context"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"primecache/internal/client"
	"primecache/internal/obs"
	"primecache/internal/server"
)

// clients is the load generator's side of the wire: one HTTP transport
// capped at a fixed number of connections, shared by a plain client and
// a conditional one that remembers ETags and sends If-None-Match. Neither
// retries, so every error, 429 and timeout reaches the benchmark.
type clients struct {
	plain, cond *client.Client
	transport   *http.Transport
	conns       int
}

func newClients(url string, conns int) *clients {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	return &clients{
		plain:     client.New(url, client.WithHTTPClient(hc), client.WithRetries(0), client.WithETagCache(0)),
		cond:      client.New(url, client.WithHTTPClient(hc), client.WithRetries(0), client.WithETagCache(memoHotPopulation)),
		transport: tr,
		conns:     conns,
	}
}

func (c *clients) close() { c.transport.CloseIdleConnections() }

// outcome is one request the load generator sent.
type outcome struct {
	due   time.Time     // when it was meant to go out; the send time in a closed loop
	lat   time.Duration // from due to the answer
	late  time.Duration // generator lateness: past due at send (open loop), or the gap since the worker's previous answer (closed loop)
	err   error
	sim   *client.SimulateResult
	model *client.ModelResult
	sweep []server.SweepResult
}

// request sends one generated request and returns its answer.
type request func() outcome

// call runs fn inside a span named name when tr is non-nil. The span
// rides the context into the client, whose propagation header makes the
// coordinator's and backends' spans its children.
func call(tr *obs.Tracer, name string, fn func(ctx context.Context) outcome) outcome {
	ctx := context.Background()
	if tr == nil {
		return fn(ctx)
	}
	ctx, span := tr.StartSpan(ctx, name)
	o := fn(ctx)
	span.End()
	return o
}

// closedLoop runs workers clients, each sending the next generated
// request as soon as its previous one is answered, until d has passed.
// next is called under a lock, in index order, so the request sequence
// is the generator's whatever the timing. It returns the outcomes in
// index order.
func closedLoop(workers int, d time.Duration, next func(i int) request) []outcome {
	var (
		mu   sync.Mutex
		n    int
		outs = map[int]outcome{}
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := n
				n++
				req := next(i)
				mu.Unlock()
				start := time.Now()
				o := req()
				o.due, o.late = start, start.Sub(prev)
				prev = time.Now()
				o.lat = prev.Sub(start)
				mu.Lock()
				outs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ordered := make([]outcome, n)
	for i, o := range outs {
		ordered[i] = o
	}
	return ordered
}

// openLoop sends request i at offset at[i] (seconds) from its start,
// whatever the state of earlier requests, through workers senders:
// when all are busy a due request waits, and its latency counts from
// when it was due. One dispatcher goroutine keeps the schedule and
// records how late it ran.
func openLoop(workers int, at []float64, next func(i int) request) []outcome {
	outs := make([]outcome, len(at))
	// Sized to the whole schedule, so the dispatcher never blocks on a
	// busy sender and its lateness measures only itself.
	queue := make(chan int, len(at))
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(at[i] * float64(time.Second))) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				late := outs[i].late
				o := next(i)()
				o.due, o.late = due(i), late
				o.lat = time.Since(o.due)
				outs[i] = o
			}
		}()
	}
	for i := range at {
		d := due(i)
		time.Sleep(time.Until(d))
		outs[i].late = time.Since(d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// resources measures the process while a phase runs: bytes allocated
// and the live heap over time.
type resources struct {
	allocs  uint64
	elapsed time.Duration
	heap    []heapSample // live heap, every heapEvery
}

type heapSample struct {
	at   time.Duration // since the phase started
	live uint64
}

// heapEvery is how often the timed phase samples the live heap.
const heapEvery = 10 * time.Millisecond

// measured runs fn while sampling the runtime's heap metrics.
func measured(fn func()) resources {
	allocs0 := allocated()
	var heap []heapSample
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			heap = append(heap, heapSample{time.Since(start), s[0].Value.Uint64()})
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	fn()
	elapsed := time.Since(start)
	close(stop)
	<-done
	return resources{allocs: allocated() - allocs0, elapsed: elapsed, heap: heap}
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak returns the median over the phase's slices of each slice's
// peak live heap.
func (r resources) heapPeak() uint64 {
	k := slices(r.elapsed)
	peaks := make([]float64, k)
	w := r.elapsed / time.Duration(k)
	for _, s := range r.heap {
		if i := int(s.at / w); i < k {
			peaks[i] = max(peaks[i], float64(s.live))
		}
	}
	return uint64(median(peaks))
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
