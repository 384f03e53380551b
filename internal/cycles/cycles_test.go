package cycles

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestChargeAccumulates(t *testing.T) {
	var c Clock
	c.Charge(100)
	c.Charge(250)
	if c.Cycles() != 350 {
		t.Errorf("Cycles = %d", c.Cycles())
	}
}

func TestDurationConversion(t *testing.T) {
	// 2.2e9 cycles at 2.2 GHz is exactly one second.
	if d := Duration(FrequencyHz); d != time.Second {
		t.Errorf("Duration(1s of cycles) = %v", d)
	}
	if d := Duration(2_200_000); d != time.Millisecond {
		t.Errorf("Duration(1ms of cycles) = %v", d)
	}
	var c Clock
	c.Charge(2_200)
	if d := c.Duration(); d != time.Microsecond {
		t.Errorf("Clock.Duration = %v", d)
	}
}

func TestWorkScale(t *testing.T) {
	var c Clock
	c.ChargeWork(1000) // unscaled by default
	if c.Cycles() != 1000 {
		t.Errorf("unscaled ChargeWork = %d", c.Cycles())
	}
	c = Clock{}
	c.SetWorkScale(2.6)
	c.ChargeWork(1000)
	if c.Cycles() != 2600 {
		t.Errorf("scaled ChargeWork = %d", c.Cycles())
	}
	// Architectural charges never scale.
	c.Charge(100)
	if c.Cycles() != 2700 {
		t.Errorf("Charge scaled: %d", c.Cycles())
	}
	// A scale of zero is a scale, not "unset": modelled compute is free.
	c = Clock{}
	c.SetWorkScale(0)
	c.ChargeWork(1000)
	c.ChargeWorkN(1000, 9)
	if c.Cycles() != 0 {
		t.Errorf("ChargeWork at scale 0 = %d", c.Cycles())
	}
}

// TestChargeLinear: charging in pieces equals charging at once.
func TestChargeLinear(t *testing.T) {
	f := func(parts []uint16) bool {
		var a, b Clock
		var sum uint64
		for _, p := range parts {
			a.Charge(uint64(p))
			sum += uint64(p)
		}
		b.Charge(sum)
		return a.Cycles() == b.Cycles()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	// Invariants from the literature the paper cites: wrpkru is cheap,
	// kernel retags cost >1,100 cycles, traps dominate everything.
	if c.WRPKRU != 20 {
		t.Errorf("WRPKRU = %d, the paper cites ~20 cycles", c.WRPKRU)
	}
	if c.PkeyMprotect < 1100 {
		t.Errorf("PkeyMprotect = %d, the paper cites >1,100 cycles", c.PkeyMprotect)
	}
	if c.TrapEntry <= c.PkeyMprotect {
		t.Error("a SIGSEGV round trip must cost more than a pkey_mprotect")
	}
	if c.TrampolineBase >= c.TrapEntry {
		t.Error("a trampoline must be far cheaper than a trap (the design's whole point)")
	}
	if c.WindowOp >= c.TrapEntry {
		t.Error("window management must be cheaper than taking a fault")
	}
}

// workNScales are the work scales of TestWorkNEqualsRepeatedWork here and
// in internal/cubicle: unset (0), native, Unikraft's (boot.UnikraftWorkScale
// = 3.4, not imported: boot imports this package's users) and one whose
// scaled charge truncates.
var workNScales = []float64{0, 1, 3.4, 3.4 * 1.37}

// TestWorkNEqualsRepeatedWork: ChargeWorkN(n, k) leaves the clock where k
// calls of ChargeWork(n) do — each n scaled and truncated on its own.
func TestWorkNEqualsRepeatedWork(t *testing.T) {
	for _, scale := range workNScales {
		for _, k := range []uint64{0, 1, 9} {
			for _, n := range []uint64{1, 18, 120, 2500} {
				var once, many Clock
				if scale != 0 {
					once.SetWorkScale(scale)
					many.SetWorkScale(scale)
				}
				once.Charge(777)
				many.Charge(777)
				once.ChargeWorkN(n, k)
				for i := uint64(0); i < k; i++ {
					many.ChargeWork(n)
				}
				if once.Cycles() != many.Cycles() {
					t.Errorf("scale %v: ChargeWorkN(%d, %d) = %d cycles, %d calls of ChargeWork = %d",
						scale, n, k, once.Cycles(), k, many.Cycles())
				}
			}
		}
	}
}

// benchClock is package-level so the compiler cannot keep its word in a
// register across iterations.
var benchClock = &Clock{}

// BenchmarkClockCharge: back-to-back charges, the store hitting L1 with
// nothing in the store buffer ahead of it.
func BenchmarkClockCharge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchClock.Charge(20)
	}
}

// BenchmarkClockChargeAfterCopy is the bulk path's pattern: a charge right
// behind a 1 400-byte copy (one TCP segment) whose destination rotates
// through a 2 MiB working set, so the store buffer is full of lines that
// miss L1 when the clock is written. A fencing store waits for all of them
// to drain; a plain one queues behind them.
func BenchmarkClockChargeAfterCopy(b *testing.B) {
	const seg, set = 1400, 2 << 20
	src, dst := make([]byte, seg), make([]byte, set)
	off := 0
	b.SetBytes(seg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst[off:off+seg], src)
		benchClock.Charge(seg / 16)
		if off += seg; off+seg > set {
			off = 0
		}
	}
}

// TestNextTickMatchesTheLoop: one NextTick equals stepping the threshold
// forward one interval at a time, the loop the periodic samplers ran.
func TestNextTickMatchesTheLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		next := rng.Uint64() >> 4
		interval := 1 + rng.Uint64()%(1<<uint(rng.Intn(24)))
		now := next + uint64(rng.Intn(1<<12))*interval + rng.Uint64()%interval
		want := next
		for want <= now {
			want += interval
		}
		if got := NextTick(next, interval, now); got != want {
			t.Fatalf("NextTick(%d, %d, %d) = %d, the loop %d", next, interval, now, got, want)
		}
	}
}
