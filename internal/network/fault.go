package network

import (
	"fmt"

	"repro/internal/sim"
)

// Fault-injection surface. The omega model keeps port, link, and switch
// occupancy as busy-until timestamps, so a transient switch-port stall is
// injected by pushing the matching timestamp into the future: everything
// behind the port backs up exactly as a real arbitration glitch would
// make it. A dropped packet is removed from a queue head, with the
// Dropped counter keeping InFlight (and therefore every idle predicate)
// exact. Ideal networks model the contentionless fabric of [Turn93] and
// have neither queues nor busy ports; every fault call is a no-op there.
//
// All methods are deterministic and take effect immediately; callers (the
// fault.Injector) are responsible for drawing targets and windows from a
// seeded schedule.

// stallUntil extends a busy-until slot, never shrinking it.
func stallUntil(slot *sim.Cycle, until sim.Cycle) {
	if until > *slot {
		*slot = until
	}
}

// StallEntry blocks input port p's entry register from feeding the first
// switch column until now+window.
func (n *Network) StallEntry(now sim.Cycle, p int, window sim.Cycle) {
	if n.ideal {
		return
	}
	if p < 0 || p >= n.ports {
		panic(fmt.Sprintf("network %s: StallEntry port %d out of range [0,%d)", n.name, p, n.ports))
	}
	stallUntil(&n.entryFree[p], now+window)
	n.FaultStalls++
}

// StallSwitchOut blocks output out of switch swi in stage s — the
// internal transfer path feeding that output queue — until now+window.
func (n *Network) StallSwitchOut(now sim.Cycle, s, swi, out int, window sim.Cycle) {
	if n.ideal {
		return
	}
	if s < 0 || s >= n.stages || swi < 0 || swi >= len(n.sw[s]) || out < 0 || out >= n.radix {
		panic(fmt.Sprintf("network %s: StallSwitchOut (%d,%d,%d) out of range", n.name, s, swi, out))
	}
	stallUntil(&n.sw[s][swi].outFreeAt[out], now+window)
	n.FaultStalls++
}

// StallDelivery blocks the delivery link at output port p until
// now+window; last-stage output queues behind it back up.
func (n *Network) StallDelivery(now sim.Cycle, p int, window sim.Cycle) {
	if n.ideal {
		return
	}
	if p < 0 || p >= n.ports {
		panic(fmt.Sprintf("network %s: StallDelivery port %d out of range [0,%d)", n.name, p, n.ports))
	}
	stallUntil(&n.deliverFree[p], now+window)
	n.FaultStalls++
}

// DropEntryHead removes the packet at the head of input port p's entry
// register, if there is one and allow permits it (allow guards the
// recovery contract: only idempotent, retryable traffic may be lost).
// The dropped packet is returned, nil if nothing was dropped.
func (n *Network) DropEntryHead(p int, allow func(*Packet) bool) *Packet {
	if n.ideal {
		return nil
	}
	if p < 0 || p >= n.ports {
		panic(fmt.Sprintf("network %s: DropEntryHead port %d out of range [0,%d)", n.name, p, n.ports))
	}
	pk := n.entry[p].head()
	if pk == nil || (allow != nil && !allow(pk)) {
		return nil
	}
	q := &n.entry[p]
	q.pop()
	if q.n == 0 {
		n.entryMask[p>>6] &^= 1 << uint(p&63)
	}
	n.Dropped++
	return pk
}

// DropSwitchHead removes the packet at the head of input queue in of
// switch swi in stage s, subject to allow. The dropped packet is
// returned, nil if nothing was dropped.
func (n *Network) DropSwitchHead(s, swi, in int, allow func(*Packet) bool) *Packet {
	if n.ideal {
		return nil
	}
	if s < 0 || s >= n.stages || swi < 0 || swi >= len(n.sw[s]) || in < 0 || in >= n.radix {
		panic(fmt.Sprintf("network %s: DropSwitchHead (%d,%d,%d) out of range", n.name, s, swi, in))
	}
	x := &n.sw[s][swi]
	pk := x.in[in].head()
	if pk == nil || (allow != nil && !allow(pk)) {
		return nil
	}
	x.in[in].pop()
	x.nextHead(in, n.digits[s])
	if x.inMask == 0 {
		n.inOcc[s][swi>>6] &^= 1 << uint(swi&63)
	}
	// A new head, or another claimant of the dropped head's output, may
	// move now.
	x.routeAt = 0
	n.Dropped++
	return pk
}
