package cubicletest

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// ReadBytes returns a fresh copy of the n bytes at addr, read with the
// privileges of e's current cubicle.
func ReadBytes(e *cubicle.Env, addr vm.Addr, n uint64) []byte {
	b := make([]byte, n)
	e.Read(addr, b)
	return b
}
