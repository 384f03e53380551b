package cubicle

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"cubicleos/internal/isa"
)

// ExportDecl declares one public entry point of a component: its symbol
// name, binary interface (register words and in-stack argument bytes, the
// information the builder extracts from the function signature in §5.2),
// and the implementing function.
type ExportDecl struct {
	Name       string
	RegArgs    int
	StackBytes int
	Fn         Fn
}

// Component describes one library OS or application component, the unit
// that Unikraft compiles as a separate dynamic library (§5.2 task 1). The
// developer specifies whether it becomes an isolated or a shared cubicle.
type Component struct {
	Name    string
	Kind    Kind
	Exports []ExportDecl
	// Image is the component's object image. If nil, the builder
	// gives it the default image exporting the declared symbols
	// (isa.DefaultImage, built once per process).
	Image *isa.Image
	// OnRestart, when set, rebuilds the component's Go-side state after
	// the supervisor restarts its cubicle (the simulator's analogue of the
	// component's initialiser re-running on the fresh image).
	OnRestart func()
	// Snapshot, when set, serialises the component's Go-side state into a
	// deterministic blob for warm recovery. It runs at quiescent points
	// (no open windows, no in-flight crossing into the cubicle); returning
	// an error vetoes the checkpoint round — the component is mid-state
	// (live connections, non-idle sockets) and the previous checkpoint
	// stays good. The SnapCtx grants monitor-privileged access to simulated
	// memory so content held in foreign pages (e.g. ALLOC-owned file pages)
	// can be captured too.
	Snapshot func(*SnapCtx) ([]byte, error)
	// Restore rebuilds the component's Go-side state from a Snapshot blob
	// after the supervisor warm-restarts its cubicle. Returning an error
	// aborts the warm restore; the supervisor falls back to the cold
	// OnRestart path. A component providing Snapshot must provide Restore.
	Restore func(*SnapCtx, []byte) error
}

// signer signs trampoline descriptors with one keyed MAC, reset between
// descriptors. A descriptor's canonical byte encoding is the data the
// builder signs (§5.2 task 3: the generated trampoline "must be generated
// and signed by the trusted builder").
type signer struct {
	mac hash.Hash
	buf []byte // the descriptor, then its MAC
}

func newSigner(secret *[32]byte) signer {
	return signer{mac: hmac.New(sha256.New, secret[:])}
}

// sign returns the signature of the descriptor of comp.sym.
func (s *signer) sign(comp, sym string, regArgs, stackBytes int) (sig [32]byte) {
	b := append(append(s.buf[:0], comp...), 0)
	b = append(append(b, sym...), 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(regArgs))
	b = binary.LittleEndian.AppendUint32(b, uint32(stackBytes))
	s.mac.Reset()
	s.mac.Write(b)
	s.buf = s.mac.Sum(b[:0])
	copy(sig[:], s.buf)
	return sig
}

// symbol names one export: comp.sym.
type symbol struct{ comp, sym string }

// SystemImage is the builder's output: the component set plus the signed
// trampoline descriptors the loader verifies before installing them.
type SystemImage struct {
	Components []*Component
	sigs       map[symbol][32]byte // HMAC of each descriptor
	signer     signer              // keyed with the builder's secret
}

// TamperSignature corrupts the stored signature for comp.sym; used by
// tests to prove the loader rejects unsigned trampolines.
func (si *SystemImage) TamperSignature(comp, sym string) {
	s := si.sigs[symbol{comp, sym}]
	s[0] ^= 0xFF
	si.sigs[symbol{comp, sym}] = s
}

// verify recomputes and checks a descriptor signature.
func (si *SystemImage) verify(comp, sym string, regArgs, stackBytes int) bool {
	want := si.signer.sign(comp, sym, regArgs, stackBytes)
	got, ok := si.sigs[symbol{comp, sym}]
	return ok && hmac.Equal(got[:], want[:])
}

// Builder is the trusted component builder of §4/§5.2. It piggy-backs on
// the component structure (one component per Unikraft library), identifies
// the public symbols of each component, and generates a signed trampoline
// descriptor for each.
type Builder struct {
	comps  []*Component
	byName map[string]*Component
	secret [32]byte
	signer signer
}

// NewBuilder creates a builder with a fresh signing secret.
func NewBuilder() *Builder {
	b := &Builder{byName: make(map[string]*Component)}
	if _, err := rand.Read(b.secret[:]); err != nil {
		panic(err)
	}
	b.signer = newSigner(&b.secret)
	return b
}

// Add registers a component with the builder. Returns an error for a
// duplicate name or an export without an implementation.
func (b *Builder) Add(c *Component) error {
	if c.Name == "" {
		return fmt.Errorf("builder: component with empty name")
	}
	if _, dup := b.byName[c.Name]; dup {
		return fmt.Errorf("builder: duplicate component %q", c.Name)
	}
	seen := make(map[string]bool)
	for _, ex := range c.Exports {
		if ex.Fn == nil {
			return fmt.Errorf("builder: component %q export %q has no implementation", c.Name, ex.Name)
		}
		if ex.RegArgs < 0 || ex.RegArgs > 6 {
			return fmt.Errorf("builder: component %q export %q: register args must be 0..6 (SysV)", c.Name, ex.Name)
		}
		if ex.StackBytes < 0 {
			return fmt.Errorf("builder: component %q export %q: negative stack bytes", c.Name, ex.Name)
		}
		if seen[ex.Name] {
			return fmt.Errorf("builder: component %q exports %q twice", c.Name, ex.Name)
		}
		seen[ex.Name] = true
	}
	b.comps = append(b.comps, c)
	b.byName[c.Name] = c
	return nil
}

// MustAdd is Add for static deployment descriptions.
func (b *Builder) MustAdd(c *Component) {
	if err := b.Add(c); err != nil {
		panic(err)
	}
}

// Build produces the system image: it gives components that lack an
// object image the default one (exporting exactly the declared public
// symbols, the equivalent of exportsyms.uk) and signs every trampoline
// descriptor with the builder's secret.
func (b *Builder) Build() (*SystemImage, error) {
	if len(b.comps) == 0 {
		return nil, fmt.Errorf("builder: no components")
	}
	n := 0
	for _, c := range b.comps {
		n += len(c.Exports)
	}
	si := &SystemImage{
		Components: b.comps,
		sigs:       make(map[symbol][32]byte, n),
		signer:     newSigner(&b.secret),
	}
	var names []string
	for _, c := range b.comps {
		if c.Image == nil {
			names = names[:0]
			for _, ex := range c.Exports {
				names = append(names, ex.Name)
			}
			c.Image = isa.DefaultImage(c.Name, names)
		}
		for _, ex := range c.Exports {
			if c.Image.FindExport(ex.Name) == nil {
				return nil, fmt.Errorf("builder: component %q image does not define exported symbol %q", c.Name, ex.Name)
			}
			si.sigs[symbol{c.Name, ex.Name}] = b.signer.sign(c.Name, ex.Name, ex.RegArgs, ex.StackBytes)
		}
	}
	return si, nil
}
