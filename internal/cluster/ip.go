package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/xylem"
)

// IP models a cluster's interactive processors, which "perform
// input/output and various other tasks" in the Alliant FX/8 (the IPs and
// IP caches of the paper's Figure 2). An IP serves I/O requests
// sequentially at the Xylem file-system cost model's rates, so
// concurrent I/O from a cluster's CEs serializes — the property that
// makes I/O-heavy codes like BDNA and MG3D sensitive to their I/O
// volume regardless of processor count.
//
// IP satisfies xylem.IODevice: every submission carries the submit
// cycle and every completion returns a xylem.IOCompletion handle, so
// callers attribute wait time from the handle alone.
type IP struct {
	waker sim.Waker

	queue       []ioReq
	busyTil     sim.Cycle
	pendingDone []doneAt

	// Fault state: faultBusyTil keeps the IP from starting new
	// transfers (a busy window — the device is occupied with "various
	// other tasks"); delayNext inflates the service time of the next
	// transfer to start (a delayed completion). Neither touches a
	// transfer already in flight.
	faultBusyTil sim.Cycle
	delayNext    sim.Cycle

	// Requests counts submissions; BusyCycles accumulates service time;
	// WordsMoved the transferred volume; Completions finished requests;
	// WaitCycles the summed submit-to-completion latency. FaultBusies
	// and FaultDelays count injected IP faults.
	Requests    int64
	BusyCycles  int64
	WordsMoved  int64
	Completions int64
	WaitCycles  int64
	FaultBusies int64
	FaultDelays int64
}

type ioReq struct {
	submitted sim.Cycle
	words     int64
	formatted bool
	onDone    func(xylem.IOCompletion)
}

// NewIP returns an IP with its own file-system cost model.
func NewIP() *IP { return &IP{} }

// AttachWaker implements sim.WakeSink: the engine hands the IP its own
// Handle at registration. An IP with no queue and no pending completion
// reports sim.Never, so the only stimulus that must wake it is Submit.
func (ip *IP) AttachWaker(w sim.Waker) { ip.waker = w }

// Submit enqueues an I/O transfer of words 64-bit words, stamped with
// the submitting cycle; onDone (may be nil) runs at the simulated time
// the transfer completes and receives the completion handle. Implements
// xylem.IODevice.
func (ip *IP) Submit(now sim.Cycle, words int64, formatted bool, onDone func(xylem.IOCompletion)) {
	if words < 0 {
		panic(fmt.Sprintf("cluster: negative I/O size %d", words))
	}
	ip.Requests++
	ip.queue = append(ip.queue, ioReq{submitted: now, words: words, formatted: formatted, onDone: onDone})
	if ip.waker != nil {
		ip.waker.Wake()
	}
}

// Pending reports queued plus in-service requests.
func (ip *IP) Pending() int { return len(ip.queue) }

// FaultBusy implements fault.FaultableIP: the IP is occupied with
// non-I/O work for window cycles from now, deferring the start of any
// queued transfer (a transfer already in flight is unaffected).
// Overlapping windows extend, never shorten.
func (ip *IP) FaultBusy(now, window sim.Cycle) {
	ip.FaultBusies++
	if til := now + window; til > ip.faultBusyTil {
		ip.faultBusyTil = til
	}
}

// FaultDelayNext implements fault.FaultableIP: the next transfer to
// start takes extra additional cycles (a slow seek / retried sector).
// The in-flight transfer, if any, is unaffected.
func (ip *IP) FaultDelayNext(extra sim.Cycle) {
	ip.FaultDelays++
	ip.delayNext += extra
}

// NextEvent implements sim.IdleComponent: the earliest pending
// completion, or the cycle the next queued transfer can start (the
// later of the current transfer's end and any fault busy window).
// Submissions arrive via Submit (external stimulus), so an IP with no
// queue and no pending completion reports Never. Completion times are
// included so a machine-wide fast-forward never jumps past an onDone
// callback.
func (ip *IP) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	for _, d := range ip.pendingDone {
		if d.at < next {
			next = d.at
		}
	}
	if len(ip.queue) > 0 {
		start := ip.busyTil
		if ip.faultBusyTil > start {
			start = ip.faultBusyTil
		}
		if start < next {
			next = start
		}
	}
	if next <= now {
		return now
	}
	return next
}

// Tick advances the IP: fire completions whose service time has
// elapsed, then start the next transfer when free.
func (ip *IP) Tick(now sim.Cycle) {
	ip.firePending(now)
	if len(ip.queue) == 0 || now < ip.busyTil || now < ip.faultBusyTil {
		return
	}
	req := ip.queue[0]
	copy(ip.queue, ip.queue[1:])
	ip.queue = ip.queue[:len(ip.queue)-1]
	cost := xylem.IOCost(req.words, req.formatted) + ip.delayNext
	ip.delayNext = 0
	ip.busyTil = now + cost
	ip.BusyCycles += int64(cost)
	ip.WordsMoved += req.words
	ip.pendingDone = append(ip.pendingDone, doneAt{
		at: ip.busyTil,
		comp: xylem.IOCompletion{
			Submitted: req.submitted,
			Done:      ip.busyTil,
			Words:     req.words,
			Formatted: req.formatted,
		},
		f: req.onDone,
	})
}

// pendingDone tracking (fired from tick).
type doneAt struct {
	at   sim.Cycle
	comp xylem.IOCompletion
	f    func(xylem.IOCompletion)
}

// firePending invokes completions whose service time has arrived, in
// submission order, and attributes their wait from the handle.
func (ip *IP) firePending(now sim.Cycle) {
	kept := ip.pendingDone[:0]
	for _, d := range ip.pendingDone {
		if d.at <= now {
			ip.Completions++
			ip.WaitCycles += int64(d.comp.Wait())
			if d.f != nil {
				d.f(d.comp)
			}
		} else {
			kept = append(kept, d)
		}
	}
	ip.pendingDone = kept
}
