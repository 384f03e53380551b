package netdev

// SetTap shows fn every frame as it is queued on the wire, in either
// direction (tests only: the wire-pin test digests the frame sequence).
func (w *Wire) SetTap(fn func(toHost bool, frame []byte)) { w.tap = fn }
