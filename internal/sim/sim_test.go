package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCycleConversions(t *testing.T) {
	if got := Cycle(1).Duration(); got != 170*time.Nanosecond {
		t.Fatalf("Cycle(1).Duration() = %v, want 170ns", got)
	}
	// Exact cycle boundaries and their neighbours: a positive duration
	// rounds up, a whole multiple of 170 ns stays exact.
	cases := []struct {
		d    time.Duration
		want Cycle
	}{
		{0, 0},
		{-time.Second, 0},
		{1 * time.Nanosecond, 1},
		{169 * time.Nanosecond, 1},
		{170 * time.Nanosecond, 1},
		{171 * time.Nanosecond, 2},
		{340 * time.Nanosecond, 2},
		{341 * time.Nanosecond, 3},
		{170 * time.Microsecond, 1000},
		{90 * time.Microsecond, 530}, // the paper's XDOALL startup
	}
	for _, c := range cases {
		if got := FromDuration(c.d); got != c.want {
			t.Fatalf("FromDuration(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Overflow edge, mirroring FromMicroseconds' saturation rows: near
	// math.MaxInt64 the round-up bias (d + CycleTime - 1) used to wrap
	// negative; the conversion must saturate to the maximum Cycle range
	// instead. MaxInt64 ns / 170 ns rounds up to 54_255_129_628_557_505.
	const maxD = time.Duration(math.MaxInt64)
	overflow := []struct {
		d    time.Duration
		want Cycle
	}{
		{maxD, 54_255_129_628_557_505},
		{maxD - 1, 54_255_129_628_557_505},
		{maxD - 127, 54_255_129_628_557_504}, // exact multiple of 170 ns
		{maxD - (CycleTime - 2), 54_255_129_628_557_504},
		{maxD - (CycleTime - 1), 54_255_129_628_557_504}, // last bias-safe input
		{maxD - CycleTime, 54_255_129_628_557_504},
	}
	for _, c := range overflow {
		if got := FromDuration(c.d); got != c.want {
			t.Fatalf("FromDuration(%d) = %d, want %d", c.d, got, c.want)
		}
		if got := FromDuration(c.d); got <= 0 {
			t.Fatalf("FromDuration(%d) = %d wrapped negative", c.d, got)
		}
	}
	// Monotonic through the former wrap point: larger durations never
	// convert to fewer cycles.
	prev := Cycle(0)
	for _, d := range []time.Duration{maxD / 4, maxD / 2, maxD - CycleTime, maxD - 1, maxD} {
		got := FromDuration(d)
		if got < prev {
			t.Fatalf("FromDuration(%d) = %d < FromDuration of a shorter duration (%d)", d, got, prev)
		}
		prev = got
	}
}

func TestFromMicroseconds(t *testing.T) {
	cases := []struct {
		us   float64
		want Cycle
	}{
		{0, 0},
		{-3, 0},
		// Exact multiples of 170 ns must not gain a spurious cycle from
		// float representation error: 0.17 µs is where the old float
		// divide produced 2 (17.000000000000004/17 ceiled up).
		{0.17, 1},
		{0.34, 2},
		{1.7, 10},
		{8.5, 50},
		{17, 100},
		{85, 500},
		{870.4, 5120}, // 512 words * 1.7 µs
		// Non-multiples round up.
		{0.1, 1},
		{0.18, 2},
		{1, 6}, // 1000/170 = 5.88
		{90, 530},
		{30, 177},
		{4, 24},
		// Runtime and xylem timing constants, pinned so the rounding fix
		// provably leaves every existing simulated timing unchanged.
		{0.6, 4},
		{9, 53},
		{500, 2942},
		{2000, 11765},
	}
	for _, c := range cases {
		if got := FromMicroseconds(c.us); got != c.want {
			t.Fatalf("FromMicroseconds(%g) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every whole multiple of 17/100 µs lands exactly on its cycle count.
	for k := Cycle(1); k <= 10000; k++ {
		if got := FromMicroseconds(float64(k) * 0.17); got != k {
			t.Fatalf("FromMicroseconds(%d * 0.17) = %d, want %d", k, got, k)
		}
	}
	// Overflow edge: once us*100 leaves int64 range the old float-to-int
	// conversion wrapped (negative cycles); the conversion must saturate
	// instead. NaN is treated as no time at all.
	saturating := []struct {
		us   float64
		want Cycle
	}{
		{1e30, Cycle(math.MaxInt64)},
		{1e300, Cycle(math.MaxInt64)},
		{math.MaxFloat64, Cycle(math.MaxInt64)},
		{math.Inf(1), Cycle(math.MaxInt64)},
		{math.NaN(), 0},
	}
	for _, c := range saturating {
		if got := FromMicroseconds(c.us); got != c.want {
			t.Fatalf("FromMicroseconds(%g) = %d, want %d", c.us, got, c.want)
		}
	}
	// Below saturation the result must stay positive and monotonic all the
	// way up — the wrap bug produced a sign flip around 9.2e16 µs.
	prev := Cycle(0)
	for _, us := range []float64{1e12, 1e14, 1e16, 5e16, 9e16, 1e17, 1e18} {
		got := FromMicroseconds(us)
		if got <= prev {
			t.Fatalf("FromMicroseconds(%g) = %d, not monotonically positive (prev %d)", us, got, prev)
		}
		prev = got
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	c := Cycle(1_000_000)
	s := c.Seconds()
	want := 0.17 // 1e6 * 170ns = 0.17 s
	if s < want-1e-9 || s > want+1e-9 {
		t.Fatalf("Seconds(1e6 cycles) = %g, want %g", s, want)
	}
}

func TestEngineTickOrderAndTime(t *testing.T) {
	e := New()
	var order []string
	mk := func(name string) ComponentFunc {
		return func(now Cycle) {
			if now != e.Now() {
				t.Errorf("component %s saw now=%d, engine Now()=%d", name, now, e.Now())
			}
			order = append(order, name)
		}
	}
	e.Register("a", mk("a"))
	e.Register("b", mk("b"))
	e.Register("c", mk("c"))
	e.Step()
	e.Step()
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("got %d ticks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %d after 2 steps, want 2", e.Now())
	}
	if e.Components() != 3 {
		t.Fatalf("Components() = %d, want 3", e.Components())
	}
	if a, c := e.ComponentName(0), e.ComponentName(2); a != "a" || c != "c" {
		t.Fatalf("ComponentName(0), ComponentName(2) = %q, %q", a, c)
	}
}

func TestEngineRun(t *testing.T) {
	e := New()
	n := 0
	e.Register("ctr", ComponentFunc(func(Cycle) { n++ }))
	e.Run(25)
	if n != 25 || e.Now() != 25 {
		t.Fatalf("after Run(25): n=%d Now=%d", n, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	n := 0
	e.Register("ctr", ComponentFunc(func(Cycle) { n++ }))
	at, err := e.RunUntil(func() bool { return n >= 10 }, 100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if at != 10 || n != 10 {
		t.Fatalf("condition held at %d with n=%d, want 10/10", at, n)
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := New()
	e.Register("noop", ComponentFunc(func(Cycle) {}))
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if e.Now() != 50 {
		t.Fatalf("engine advanced to %d, want 50", e.Now())
	}
}

func TestRunUntilImmediate(t *testing.T) {
	e := New()
	at, err := e.RunUntil(func() bool { return true }, 0)
	if err != nil || at != 0 {
		t.Fatalf("immediate condition: at=%d err=%v", at, err)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	New().Register("bad", nil)
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a2 := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d times of 1000", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}
