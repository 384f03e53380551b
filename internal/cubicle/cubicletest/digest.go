package cubicletest

import (
	"encoding/binary"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/trace"
)

// StreamDigest continues the FNV-1a m's tracer folded from StartDigest on
// (every event's Seq, Cycle, Kind, Thread, Cubicle, Other, Arg, Cost and
// Name) with the final clock, every cubicle.Counters row and then each
// extra byte string, length-prefixed. It panics if the fold never started.
func StreamDigest(m *cubicle.Monitor, extra ...[]byte) uint64 {
	h := m.Tracer().Digest()
	if h == 0 {
		panic("cubicletest: no digest: StartDigest was not called, or the ring had dropped events")
	}
	put := func(v uint64) { h = trace.FNV(h, binary.LittleEndian.AppendUint64(nil, v)) }
	put(m.Clock.Cycles())
	for _, c := range cubicle.Counters {
		h = trace.FNV(h, c.Name)
		put(*c.Field(&m.Stats))
	}
	for _, b := range extra {
		put(uint64(len(b)))
		h = trace.FNV(h, b)
	}
	return h
}
