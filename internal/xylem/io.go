package xylem

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// IOCompletion is the completion handle of one I/O transfer: the cycle
// the request was submitted, the cycle the device finished serving it,
// and what moved. The device hands it to the completion callback, so
// wait-time attribution (Done - Submitted) is pure arithmetic on the
// handle — no side-channel state between the submitter, the scheduler
// and telemetry.
type IOCompletion struct {
	Submitted sim.Cycle
	Done      sim.Cycle
	Words     int64
	Formatted bool
}

// Wait returns the submit-to-completion latency.
func (c IOCompletion) Wait() sim.Cycle { return c.Done - c.Submitted }

// IODevice is a sequential I/O server as the scheduler sees it;
// cluster.IP satisfies it. Submit is called outside the device's own
// tick, so the current cycle is passed explicitly and stamps the handle.
type IODevice interface {
	Submit(now sim.Cycle, words int64, formatted bool, onDone func(IOCompletion))
}

// parkedIO is one program blocked on an outstanding transfer.
type parkedIO struct {
	id        int64
	label     string
	words     int64
	formatted bool
	since     sim.Cycle
}

// IOWait is Xylem's blocked-on-I/O table: a program issuing a blocking
// Fortran I/O statement parks here while its transfer is outstanding and
// is redispatched (its resume callback runs) at the completion cycle.
// The table never ticks — completions arrive through the device's own
// callback — so it reports sim.Never and costs the engine nothing; it is
// registered only so a run that times out while programs are parked can
// name them (FaultReason folds into the ErrDeadline diagnostics).
type IOWait struct {
	parked []parkedIO
	nextID int64

	parks               int64
	completions         int64
	waitCycles          int64
	waitCyclesFormatted int64
}

// NewIOWait returns an empty park table.
func NewIOWait() *IOWait { return &IOWait{} }

// Park blocks the issuing program on a transfer of words through dev:
// the request is submitted immediately and resume runs at the completion
// cycle, after the table's accounting has attributed the wait. label
// names the program in diagnostics.
func (w *IOWait) Park(now sim.Cycle, dev IODevice, words int64, formatted bool, label string, resume func(IOCompletion)) {
	id := w.nextID
	w.nextID++
	w.parked = append(w.parked, parkedIO{id: id, label: label, words: words, formatted: formatted, since: now})
	w.parks++
	dev.Submit(now, words, formatted, func(comp IOCompletion) {
		for i := range w.parked {
			if w.parked[i].id == id {
				w.parked = append(w.parked[:i], w.parked[i+1:]...)
				break
			}
		}
		w.completions++
		w.waitCycles += int64(comp.Wait())
		if comp.Formatted {
			w.waitCyclesFormatted += int64(comp.Wait())
		}
		if resume != nil {
			resume(comp)
		}
	})
}

// Parks reports programs ever blocked; Completions redispatches;
// WaitCycles the summed submit-to-completion latency.
// WaitCyclesFormatted is the share of WaitCycles spent on formatted
// transfers — the split the CPI-stack io_park cross-check uses to tell
// conversion-bound waits (BDNA's trajectory writes) from raw streaming
// (MG3D's trace reads).
func (w *IOWait) Parks() int64 { return w.parks }

// Completions reports completed (redispatched) transfers.
func (w *IOWait) Completions() int64 { return w.completions }

// WaitCycles reports the summed submit-to-completion latency.
func (w *IOWait) WaitCycles() int64 { return w.waitCycles }

// WaitCyclesFormatted reports WaitCycles' formatted-transfer share.
func (w *IOWait) WaitCyclesFormatted() int64 { return w.waitCyclesFormatted }

// Parked reports the number of programs currently blocked on I/O.
func (w *IOWait) Parked() int { return len(w.parked) }

// Tick implements sim.Component; the table has no per-cycle behavior.
func (w *IOWait) Tick(sim.Cycle) {}

// NextEvent implements sim.IdleComponent: the table itself never needs a
// tick (completions arrive via device callbacks).
func (w *IOWait) NextEvent(sim.Cycle) sim.Cycle { return sim.Never }

// FaultReason implements sim.FaultReporter: non-empty while programs are
// parked, naming each one — so a RunUntil that dies on its deadline with
// a transfer still outstanding reports who is blocked on what instead of
// timing out silently.
func (w *IOWait) FaultReason() string {
	if w.Parked() == 0 {
		return ""
	}
	parts := make([]string, 0, len(w.parked))
	for _, p := range w.parked {
		kind := "raw"
		if p.formatted {
			kind = "formatted"
		}
		parts = append(parts, fmt.Sprintf("%s (%d %s words, parked since cycle %d)", p.label, p.words, kind, p.since))
	}
	return "programs parked on outstanding I/O: " + strings.Join(parts, ", ")
}

// RegisterMetrics publishes the park table's counters under prefix
// (conventionally "xylem/io").
func (w *IOWait) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"/parks", w.Parks)
	reg.CounterFunc(prefix+"/completions", w.Completions)
	reg.CounterFunc(prefix+"/wait_cycles", w.WaitCycles)
	reg.CounterFunc(prefix+"/wait_cycles_formatted", w.WaitCyclesFormatted)
	reg.Gauge(prefix+"/parked", func() int64 { return int64(w.Parked()) })
}
