package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's instruction rate swings with its co-tenants: on a shared
// 2-vCPU KVM guest a fixed loop ran twice as slow for minutes at a time,
// and 20% slower from one second to the next. A run therefore times a
// fixed reference chunk every calibEvery on a thread of its own and
// reports every host time at reference speed: each timing is divided,
// and each rate multiplied, by the chunk's recent thread CPU time over
// refChunk. Thread CPU time leaves out waits for a CPU, so the
// benchmark's own load does not read as a slower host.

// refChunk is the chunk's thread CPU time on a quiet host; a run whose
// chunk takes refChunk reports host times as measured.
const refChunk = 160 * time.Microsecond

const calibEvery = 40 * time.Millisecond

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// refWork is the reference chunk's state: a branchy integer loop, a
// dependent walk over a 128 KiB ring and a 64 KiB clear. Its data fits
// in a core's private cache, so once warm the chunk times the core
// itself, whatever ran on it before.
type refWork struct {
	x    uint64
	pos  uint32
	ring []uint32
	buf  []byte
}

func newRefWork() *refWork {
	const n = 1 << 15
	w := &refWork{x: 1, ring: make([]uint32, n), buf: make([]byte, 64<<10)}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- { // Sattolo: a single cycle through all slots
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		w.ring[perm[i]] = perm[(i+1)%n]
	}
	return w
}

func (w *refWork) chunk() {
	x := w.x
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>63 == 1 {
			x ^= x >> 29
		} else {
			x += x >> 31
		}
	}
	p := w.pos
	for i := 0; i < 10000; i++ {
		p = w.ring[p]
	}
	clear(w.buf)
	w.x, w.pos = x, p
}

// hostSpeed times the reference chunk in the background and answers
// how fast the host ran lately. Host speed drifts within a run too, so
// each timing is divided by the speed of the second before it ends.
type hostSpeed struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

// speedSample is one timed chunk: when it ended and its time over
// refChunk (above 1 on a slower host).
type speedSample struct {
	at     time.Time
	factor float64
}

// speedWindow is how far back now looks; it holds about 25 samples.
const speedWindow = time.Second

func startHostSpeed() *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(h.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		w := newRefWork()
		sample := func() {
			w.chunk() // warms the cache; the second pass is timed
			c0 := threadCPU()
			w.chunk()
			f := float64(threadCPU()-c0) / float64(refChunk)
			h.mu.Lock()
			h.samples = append(h.samples, speedSample{time.Now(), f})
			h.mu.Unlock()
		}
		for i := 0; i < 5; i++ { // a first estimate before any timing ends
			sample()
		}
		close(ready)
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	<-ready
	return h
}

// stopSampling ends the background timing and waits for it.
func (h *hostSpeed) stopSampling() {
	close(h.stop)
	<-h.done
}

// over is the median speed factor of the samples taken in (from, to],
// or of the sample nearest that span when it holds none.
func (h *hostSpeed) over(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	hi := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at.After(to) })
	lo := sort.Search(hi, func(i int) bool { return h.samples[i].at.After(from) })
	if lo == hi {
		lo, hi = max(hi-1, 0), max(hi, 1)
	}
	fs := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		fs = append(fs, s.factor)
	}
	return median(fs)
}

// at is the host's speed factor over the speedWindow before t.
func (h *hostSpeed) at(t time.Time) float64 { return h.over(t.Add(-speedWindow), t) }

// now is the host's speed factor over the last speedWindow.
func (h *hostSpeed) now() float64 { return h.at(time.Now()) }
