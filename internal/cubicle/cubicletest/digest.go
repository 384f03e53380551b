package cubicletest

import (
	"encoding/binary"
	"hash/fnv"
	"io"

	"cubicleos/internal/cubicle"
)

// StreamDigest folds everything virtual about a traced run into one
// FNV-1a: every surviving event (Seq, Cycle, Kind, Thread, Cubicle, Other,
// Arg, Cost, Name), the final clock, every cubicle.Counters row and then
// each extra byte string, length-prefixed. It reads the ring back, so a
// caller must first check Dropped() == 0.
func StreamDigest(m *cubicle.Monitor, extra ...[]byte) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	for _, ev := range m.Tracer().Events() {
		put(ev.Seq, ev.Cycle, uint64(ev.Kind), uint64(ev.Thread), uint64(ev.Cubicle),
			uint64(ev.Other), ev.Arg, ev.Cost, uint64(len(ev.Name)))
		io.WriteString(h, ev.Name)
	}
	put(m.Clock.Cycles())
	for _, c := range cubicle.Counters {
		io.WriteString(h, c.Name)
		put(*c.Field(&m.Stats))
	}
	for _, b := range extra {
		put(uint64(len(b)))
		h.Write(b)
	}
	return h.Sum64()
}
