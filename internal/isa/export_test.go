package isa

// CodeSection returns the image's first code section, or nil if it has
// none.
func (im *Image) CodeSection() *Section {
	for i := range im.Sections {
		if im.Sections[i].Kind == SecCode {
			return &im.Sections[i]
		}
	}
	return nil
}

// ResetCache forgets every DefaultImage and GuardPage built so far, so the
// next call of each builds it again. Monitors already booted keep theirs.
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	images = map[string]*Image{}
	guards = map[uint32]*[GuardPageSize]byte{}
}
