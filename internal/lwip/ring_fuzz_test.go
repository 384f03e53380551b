package lwip

import (
	"bytes"
	"sync"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// ringHarness is a minimal booted system whose only job is to give the
// ring's Memcpy-based operations a real Env and simulated memory. It is
// built once and shared (under a lock) across fuzz iterations.
type ringHarness struct {
	mu   sync.Mutex
	m    *cubicle.Monitor
	env  *cubicle.Env
	id   cubicle.ID
	buf  vm.Addr // ring storage, maxCap bytes
	side vm.Addr // staging for writes/reads, maxCap bytes
}

const fuzzMaxCap = 512

var harnessOnce struct {
	sync.Once
	h   *ringHarness
	err error
}

func newRingHarness() (*ringHarness, error) {
	b := cubicle.NewBuilder()
	b.MustAdd(&cubicle.Component{Name: "RINGAPP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main",
			Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}}})
	si, err := b.Build()
	if err != nil {
		return nil, err
	}
	m := cubicle.NewMonitor(cubicle.ModeUnikraft, cycles.DefaultCosts())
	cubs, err := cubicle.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		return nil, err
	}
	h := &ringHarness{m: m, env: m.NewEnv(m.NewThread()), id: cubs["RINGAPP"].ID}
	if err := m.RunAs(h.env, h.id, func(e *cubicle.Env) {
		h.buf = e.HeapAlloc(fuzzMaxCap)
		h.side = e.HeapAlloc(fuzzMaxCap)
	}); err != nil {
		return nil, err
	}
	return h, nil
}

// FuzzRing drives a ring through an arbitrary op sequence and checks it
// against a plain byte-queue model: every write/read/peek/consume must
// move exactly the clamped count, deliver bytes in FIFO order, and keep
// len/space within capacity — including the wrap-around and zero-capacity
// edges that used to underflow or divide by zero.
func FuzzRing(f *testing.F) {
	f.Add(uint8(0), []byte{0, 255, 1, 255, 3, 255})        // zero capacity: everything refused
	f.Add(uint8(1), []byte{0, 200, 1, 100, 0, 200, 1, 57}) // wrap-around on a small ring
	f.Add(uint8(2), []byte{0, 10, 3, 255, 3, 1})           // over-consume
	f.Add(uint8(3), []byte{0, 255, 0, 255, 2, 40, 1, 255}) // overfill then peek/read
	f.Add(uint8(4), []byte{0, 1, 1, 1, 0, 0, 3, 0})        // zero-length ops
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		harnessOnce.Do(func() { harnessOnce.h, harnessOnce.err = newRingHarness() })
		if harnessOnce.err != nil {
			t.Fatal(harnessOnce.err)
		}
		h := harnessOnce.h
		h.mu.Lock()
		defer h.mu.Unlock()

		caps := []uint64{0, 1, 7, 64, fuzzMaxCap}
		capacity := caps[int(capSel)%len(caps)]
		r := &ring{buf: h.buf, cap: capacity}
		var model []byte
		seq := byte(0)
		err := h.m.RunAs(h.env, h.id, func(e *cubicle.Env) {
			for i := 0; i+1 < len(ops); i += 2 {
				op, n := ops[i]%4, uint64(ops[i+1])
				switch op {
				case 0: // write
					pat := make([]byte, n)
					for j := range pat {
						pat[j] = seq
						seq++
					}
					if n > 0 {
						e.Write(h.side, pat)
					}
					want := n
					if free := capacity - uint64(len(model)); want > free {
						want = free
					}
					if got := r.write(e, h.side, n); got != want {
						t.Fatalf("op %d: write(%d) = %d, want %d (len %d cap %d)", i, n, got, want, len(model), capacity)
					} else {
						model = append(model, pat[:got]...)
					}
				case 1: // read
					want := n
					if want > uint64(len(model)) {
						want = uint64(len(model))
					}
					got := r.read(e, h.side, n)
					if got != want {
						t.Fatalf("op %d: read(%d) = %d, want %d", i, n, got, want)
					}
					if got > 0 {
						if data := cubicletest.ReadBytes(e, h.side, got); !bytes.Equal(data, model[:got]) {
							t.Fatalf("op %d: read returned %v, want %v", i, data, model[:got])
						}
						model = model[got:]
					}
				case 2: // peek
					want := n
					if want > uint64(len(model)) {
						want = uint64(len(model))
					}
					got := r.peek(e, h.side, n)
					if got != want {
						t.Fatalf("op %d: peek(%d) = %d, want %d", i, n, got, want)
					}
					if got > 0 {
						if data := cubicletest.ReadBytes(e, h.side, got); !bytes.Equal(data, model[:got]) {
							t.Fatalf("op %d: peek returned %v, want %v", i, data, model[:got])
						}
					}
				case 3: // consume
					want := n
					if want > uint64(len(model)) {
						want = uint64(len(model))
					}
					r.consume(n)
					model = model[want:]
				}
				if r.len != uint64(len(model)) {
					t.Fatalf("op %d: ring len %d diverged from model %d", i, r.len, len(model))
				}
				if r.len > capacity || r.space() != capacity-r.len {
					t.Fatalf("op %d: accounting broken: len %d cap %d space %d", i, r.len, capacity, r.space())
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
