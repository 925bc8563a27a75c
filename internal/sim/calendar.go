package sim

// calendar is the engine's wake calendar heap: an indexed binary
// min-heap of registered components keyed by (due cycle, registration
// index), holding only NextEvent answers more than one cycle ahead (the
// engine's due bitsets hold the rest). The index tie-break is
// load-bearing — components due the same cycle must be processed in
// registration order so tick order stays bit-identical to the naive scan
// — and the position index makes remove (the Wake used when external
// stimulus invalidates a future NextEvent answer) O(log n) instead of a
// linear search.
//
// Entries are component indices; the at/pos arrays are parallel to the
// engine's component slice and grown at Register time, so scheduling a
// component never allocates on the per-cycle path.
type calendar struct {
	heap []int   // component indices, heap-ordered by less()
	at   []Cycle // per component: due cycle (valid while pos[i] >= 0)
	pos  []int   // per component: position in heap, -1 when not scheduled
}

// grow extends the parallel arrays for one newly registered component.
func (c *calendar) grow() {
	c.at = append(c.at, 0)
	c.pos = append(c.pos, -1)
}

func (c *calendar) empty() bool { return len(c.heap) == 0 }

// minAt returns the due cycle of the earliest entry. It requires a
// non-empty calendar.
func (c *calendar) minAt() Cycle { return c.at[c.heap[0]] }

// less orders heap entries by due cycle, ties broken by registration
// index (the engine's deterministic tick order).
func (c *calendar) less(a, b int) bool {
	return c.at[a] < c.at[b] || (c.at[a] == c.at[b] && a < b)
}

// push schedules component i at cycle t. The component must not already
// be scheduled.
func (c *calendar) push(i int, t Cycle) {
	if c.pos[i] >= 0 {
		panic("sim: calendar push of an already scheduled component")
	}
	c.at[i] = t
	c.pos[i] = len(c.heap)
	c.heap = append(c.heap, i)
	c.siftUp(len(c.heap) - 1)
}

// popMin removes and returns the earliest entry's component index.
func (c *calendar) popMin() int {
	i := c.heap[0]
	c.remove(i)
	return i
}

// remove deletes component i's entry, reporting whether it had one.
func (c *calendar) remove(i int) bool {
	p := c.pos[i]
	if p < 0 {
		return false
	}
	c.pos[i] = -1
	last := len(c.heap) - 1
	if p < last {
		c.heap[p] = c.heap[last]
		c.pos[c.heap[p]] = p
	}
	c.heap = c.heap[:last]
	if p < last {
		c.siftDown(p)
		c.siftUp(p)
	}
	return true
}

func (c *calendar) siftUp(p int) {
	for p > 0 {
		parent := (p - 1) / 2
		if !c.less(c.heap[p], c.heap[parent]) {
			return
		}
		c.swap(p, parent)
		p = parent
	}
}

func (c *calendar) siftDown(p int) {
	n := len(c.heap)
	for {
		l, r := 2*p+1, 2*p+2
		min := p
		if l < n && c.less(c.heap[l], c.heap[min]) {
			min = l
		}
		if r < n && c.less(c.heap[r], c.heap[min]) {
			min = r
		}
		if min == p {
			return
		}
		c.swap(p, min)
		p = min
	}
}

func (c *calendar) swap(a, b int) {
	c.heap[a], c.heap[b] = c.heap[b], c.heap[a]
	c.pos[c.heap[a]] = a
	c.pos[c.heap[b]] = b
}
