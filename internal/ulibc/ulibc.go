// Package ulibc is the shared LIBC cubicle (the paper's newlibc
// equivalent): memcpy and memset, which contain no state and are used by
// every component. As a shared cubicle its code
// executes with the privileges, stack and heap of the calling cubicle
// (§3 ❹) — calls into it never involve the CubicleOS TCB.
package ulibc

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Component name as it appears in deployments.
const Name = "LIBC"

// Component returns the LIBC component for the builder.
func Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindShared,
		Exports: []cubicle.ExportDecl{
			{Name: "memcpy", RegArgs: 3, Fn: memcpy},
			{Name: "memset", RegArgs: 3, Fn: memset},
		},
	}
}

// memcpy(dst, src, n) copies n bytes and returns dst.
func memcpy(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "memcpy", args, 3)
	e.Memcpy(vm.Addr(args[0]), vm.Addr(args[1]), args[2])
	return e.Ret(args[0])
}

// memset(dst, c, n) fills n bytes with c and returns dst.
func memset(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "memset", args, 3)
	e.Memset(vm.Addr(args[0]), byte(args[1]), args[2])
	return e.Ret(args[0])
}

// Client provides typed access to LIBC from another component.
type Client struct {
	memcpy, memset cubicle.Handle
}

// NewClient resolves LIBC's entry points for the given caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		memcpy: m.MustResolve(caller, Name, "memcpy"),
		memset: m.MustResolve(caller, Name, "memset"),
	}
}

// Memcpy calls LIBC memcpy.
func (c *Client) Memcpy(e *cubicle.Env, dst, src vm.Addr, n uint64) {
	c.memcpy.Call(e, uint64(dst), uint64(src), n)
}

// Memset calls LIBC memset.
func (c *Client) Memset(e *cubicle.Env, dst vm.Addr, v byte, n uint64) {
	c.memset.Call(e, uint64(dst), uint64(v), n)
}
