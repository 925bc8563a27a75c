package sim

import "testing"

// newTestCalendar builds a calendar sized for n components.
func newTestCalendar(n int) *calendar {
	c := &calendar{}
	for i := 0; i < n; i++ {
		c.grow()
	}
	return c
}

func TestCalendarPopOrder(t *testing.T) {
	c := newTestCalendar(5)
	// Scheduled out of order; pop must return strictly (cycle, index)
	// ascending.
	c.push(3, 10)
	c.push(0, 40)
	c.push(4, 10)
	c.push(1, 5)
	c.push(2, 40)
	want := []struct {
		idx int
		at  Cycle
	}{{1, 5}, {3, 10}, {4, 10}, {0, 40}, {2, 40}}
	for _, w := range want {
		if c.empty() {
			t.Fatalf("calendar empty before popping (%d, %d)", w.idx, w.at)
		}
		if got, at := c.heap[0], c.minAt(); got != w.idx || at != w.at {
			t.Fatalf("min = (%d, %d), want (%d, %d)", got, at, w.idx, w.at)
		}
		if got := c.popMin(); got != w.idx {
			t.Fatalf("popMin = %d, want %d", got, w.idx)
		}
	}
	if !c.empty() {
		t.Fatal("calendar not empty after popping every entry")
	}
}

func TestCalendarTiesBreakByRegistrationIndex(t *testing.T) {
	// All entries due the same cycle: pop order must be registration
	// order regardless of insertion order, because tick order is the
	// determinism contract.
	c := newTestCalendar(8)
	for _, i := range []int{5, 2, 7, 0, 6, 1, 4, 3} {
		c.push(i, 100)
	}
	for want := 0; want < 8; want++ {
		if got := c.popMin(); got != want {
			t.Fatalf("tie-break pop #%d = %d, want registration order", want, got)
		}
	}
}

func TestCalendarRemove(t *testing.T) {
	c := newTestCalendar(5)
	for i, at := range []Cycle{50, 30, 70, 10, 40} {
		c.push(i, at)
	}
	// Removing an interior entry, the minimum and an absent component:
	// the heap keeps (cycle, index) order and membership stays exact.
	if !c.remove(0) || !c.remove(3) {
		t.Fatal("remove of a scheduled component reported no entry")
	}
	if c.remove(3) {
		t.Fatal("remove of an unscheduled component reported an entry")
	}
	if c.pos[0] >= 0 || c.pos[3] >= 0 {
		t.Fatal("removed components still scheduled")
	}
	if got := []int{c.popMin(), c.popMin(), c.popMin()}; got[0] != 1 || got[1] != 4 || got[2] != 2 {
		t.Fatalf("pop order %v, want [1 4 2]", got)
	}
	// A removed component can be scheduled again.
	c.push(3, 5)
	if c.heap[0] != 3 || c.minAt() != 5 {
		t.Fatalf("min = (%d, %d) after re-push, want (3, 5)", c.heap[0], c.minAt())
	}
}

func TestCalendarDoublePushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pushing an already scheduled component did not panic")
		}
	}()
	c := newTestCalendar(1)
	c.push(0, 5)
	c.push(0, 7)
}
