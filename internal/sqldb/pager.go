package sqldb

import (
	"encoding/binary"
	"fmt"
	"slices"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// PageSize is the database page size.
const PageSize = 4096

// Work model: the engine's CPU/memory work charged on the virtual clock.
const (
	workPageIO     = 250 // pager bookkeeping per page read/written
	workNodeSearch = 120 // B+tree node binary search base
	workPerCompare = 18
	workRecDecode  = 90
	workRecEncode  = 110
	workRowFilter  = 60 // expression evaluation per row
	workParseSQL   = 2500
)

// headerPage is the database header (page 1) layout:
//
//	[0:8)  magic "CUBIQLDB"
//	[8:12) page count
//	[12:16) catalog btree root page
//	[16:20) zero
var magic = [8]byte{'C', 'U', 'B', 'I', 'Q', 'L', 'D', 'B'}

// maxSpare bounds Pager.spare beyond a full cache: the pager holds at most
// cap+maxSpare frames, cached or spare. A miss takes a frame and the
// eviction it causes gives one back, so with the cache full the list is
// rarely longer than one; a rollback gives back the frames of the pages its
// transaction allocated, for the next transaction's.
const maxSpare = 4

// cpage is a cached page: the frame (node.data) with, beside it, the
// B+tree's cell directory for it.
type cpage struct {
	pgno uint32
	node
	dirty bool
	// prev and next link the ring of every cached page in order of last
	// touch, closed by the sentinel Pager.recent: prev is the page touched
	// after this one, next the one before it, so recent.next is the most
	// recently used page and recent.prev the one evictIfNeeded takes.
	prev, next *cpage
	// pins counts the holders up the stack that read this frame across a
	// pager call that may evict it: a scan iterating it (eachCell), a row
	// view (Btree.Row), Check walking an interior page's children. An
	// evicted frame with a pin is dropped, not recycled, so its holders go
	// on reading the bytes they were shown (DESIGN.md §16); under
	// Pager.guardScans a write to a pinned page panics.
	pins int
}

// PagerStats counts pager events for the experiment reports.
type PagerStats struct {
	Hits, Misses, Reads, Writes, Spills, JournalPages, Fsyncs, Commits uint64
	// Recoveries counts hot-journal rollbacks performed at open.
	Recoveries uint64
}

// Pager is the page cache plus rollback-journal transaction layer. All
// file I/O goes through the VFS client, staged in a window-shared buffer.
type Pager struct {
	e   *cubicle.Env
	vfs *vfscore.Client

	path    string
	jpath   string // the journal file's: path with "-journal" appended
	fd      uint64
	jfd     uint64 // journal fd while a journal file exists
	ioBuf   vm.Addr
	cache   []*cpage // by page number, nil where not cached
	cached  int      // the non-nil entries of cache
	cap     int
	spare   []*cpage // dropped unpinned frames for the next miss, see maxSpare
	big     node     // Btree.splitPut's copy of an over-full page
	splits  []*split // Btree.splitPut's results, one per tree level
	recent  cpage    // sentinel of the recency ring, see cpage.prev
	nPages  uint32
	catRoot uint32

	inTxn bool
	// origs holds, by page number, the pre-transaction image of every page
	// the transaction has written: in memory until spillJournal has written
	// it to the journal file, nil from then on — the journal is where
	// Rollback finds it.
	origs map[uint32][]byte
	free  []*[PageSize]byte // released image buffers, for reuse
	// unjournaled lists the pages of origs not yet in the journal file, in
	// the order beforeWrite recorded them.
	unjournaled []uint32
	jOffset     uint64 // the journal file's length

	// guardScans, set only by tests, makes handing out for writing a page
	// that a holder has pinned a panic rather than silently stale data, and
	// fills an evicted frame with 0xDD before it is recycled, and a released
	// pre-image before it is reused.
	guardScans bool

	// Window discipline (the ported SQLite's CubicleOS-specific code,
	// §6.2): the I/O buffer's window is opened for the file-system
	// cubicles before each I/O call and closed again after, exactly as
	// Figure 4 does around RAMFS_WRITE.
	ioWid     cubicle.WID
	ioTargets []cubicle.ID

	Stats PagerStats
}

// SetWindowDiscipline makes the pager open/close the given window for the
// target cubicles around every file I/O call. This is the window
// management the paper's SQLite port adds (600 SLOC, §6.2).
func (p *Pager) SetWindowDiscipline(wid cubicle.WID, targets ...cubicle.ID) {
	p.ioWid = wid
	p.ioTargets = p.ioTargets[:0]
	for _, t := range targets {
		dup := false
		for _, have := range p.ioTargets {
			if have == t {
				dup = true
			}
		}
		if !dup {
			p.ioTargets = append(p.ioTargets, t)
		}
	}
}

// openIOWindow grants the FS stack access to the I/O buffer for one call.
func (p *Pager) openIOWindow() {
	for _, t := range p.ioTargets {
		p.e.WindowOpen(p.ioWid, t)
	}
}

// closeIOWindow revokes the grant (lazily, per causal tag consistency).
func (p *Pager) closeIOWindow() {
	for _, t := range p.ioTargets {
		p.e.WindowClose(p.ioWid, t)
	}
}

// OpenPager opens (or creates) the database file at path. The ioBuf must
// be a page-sized, page-aligned buffer owned by the calling cubicle with
// windows open for VFSCORE and the file-system backend.
func OpenPager(e *cubicle.Env, vfs *vfscore.Client, path string, ioBuf vm.Addr, cacheCap int) (*Pager, error) {
	if cacheCap < 8 {
		cacheCap = 8
	}
	p := &Pager{
		e: e, vfs: vfs, path: path, jpath: path + "-journal", ioBuf: ioBuf,
		cap: cacheCap, spare: make([]*cpage, 0, maxSpare),
		origs: make(map[uint32][]byte),
	}
	p.recent.prev, p.recent.next = &p.recent, &p.recent
	fd, errno := vfs.Open(e, path, vfscore.OCreat|vfscore.ORdwr)
	if errno != vfscore.EOK {
		return nil, fmt.Errorf("sqldb: open %s: errno %d", path, errno)
	}
	p.fd = fd
	// Hot-journal recovery: a journal file left behind by a crashed
	// transaction holds the pre-transaction page images; replay them into
	// the database before reading anything (the rollback-journal recovery
	// protocol).
	if err := p.recoverHotJournal(); err != nil {
		return nil, err
	}
	size, errno := vfs.FStat(e, fd)
	if errno != vfscore.EOK {
		return nil, fmt.Errorf("sqldb: fstat: errno %d", errno)
	}
	if size == 0 {
		// Fresh database: header page plus the catalog root.
		p.nPages = 1
		hdr := p.freshPage(1)
		copy(hdr.data, magic[:])
		cat := p.Allocate()
		initBtreePage(p.page(cat).data, pgTableLeaf)
		p.catRoot = cat
		p.writeHeader()
		if err := p.flushAll(); err != nil {
			return nil, err
		}
	} else {
		if err := p.readPage(1); err != nil {
			return nil, err
		}
		hdr := p.cache[1]
		for i := range magic {
			if hdr.data[i] != magic[i] {
				return nil, fmt.Errorf("sqldb: %s is not a database", path)
			}
		}
		p.nPages = binary.LittleEndian.Uint32(hdr.data[8:])
		p.catRoot = binary.LittleEndian.Uint32(hdr.data[12:])
	}
	return p, nil
}

// recoverHotJournal replays a leftover journal file into the database and
// removes it.
func (p *Pager) recoverHotJournal() error {
	jsize, errno := p.vfs.Stat(p.e, p.jpath)
	if errno != vfscore.EOK || jsize == 0 {
		return nil // no hot journal
	}
	p.Stats.Recoveries++
	if err := p.replayJournal(jsize); err != nil {
		return err
	}
	if errno := p.vfs.Unlink(p.e, p.jpath); errno != vfscore.EOK {
		return fmt.Errorf("sqldb: hot journal unlink: errno %d", errno)
	}
	return nil
}

// replayJournal copies the pre-images in the first jsize bytes of the
// journal file back into the database file, and into the frame of each
// page the cache holds, and syncs the database: hot-journal recovery at
// open, and Rollback for the pages it spilled. Each journal record is an
// 8-byte header (page number) plus the page's pre-transaction image. A
// read or write that fails returns the error with the journal as it was,
// for the next open to recover from.
func (p *Pager) replayJournal(jsize uint64) error {
	jfd, errno := p.vfs.Open(p.e, p.jpath, vfscore.ORdonly)
	if errno != vfscore.EOK {
		return fmt.Errorf("sqldb: journal open for replay: errno %d", errno)
	}
	defer p.vfs.Close(p.e, jfd)
	const rec = 8 + PageSize
	for off := uint64(0); off+rec <= jsize; off += rec {
		p.openIOWindow()
		n, errno := p.vfs.PRead(p.e, jfd, p.ioBuf, 8, off)
		p.closeIOWindow()
		if errno != vfscore.EOK || n != 8 {
			return fmt.Errorf("sqldb: journal header read: errno %d", errno)
		}
		var hdr [8]byte
		p.e.Read(p.ioBuf, hdr[:])
		pgno := binary.LittleEndian.Uint32(hdr[:])
		// Copy the image straight from the journal to the database page.
		p.openIOWindow()
		n, errno = p.vfs.PRead(p.e, jfd, p.ioBuf, PageSize, off+8)
		if errno == vfscore.EOK && n == PageSize {
			n, errno = p.vfs.PWrite(p.e, p.fd, p.ioBuf, PageSize, uint64(pgno-1)*PageSize)
		}
		p.closeIOWindow()
		if errno != vfscore.EOK || n != PageSize {
			return fmt.Errorf("sqldb: journal replay of page %d: errno %d", pgno, errno)
		}
		if pg := p.lookup(pgno); pg != nil {
			p.e.Read(p.ioBuf, pg.data) // the frame holds what the transaction wrote
			pg.dirty, pg.dir = false, pg.dir[:0]
		}
	}
	if errno := p.vfs.FSync(p.e, p.fd); errno != vfscore.EOK {
		return fmt.Errorf("sqldb: database fsync after journal replay: errno %d", errno)
	}
	return nil
}

// writeHeader refreshes page 1 from the pager fields.
func (p *Pager) writeHeader() {
	hdr := p.page(1)
	p.beforeWrite(hdr)
	binary.LittleEndian.PutUint32(hdr.data[8:], p.nPages)
	binary.LittleEndian.PutUint32(hdr.data[12:], p.catRoot)
	hdr.dirty = true
}

// freshPage installs an all-zero cached page without touching the file.
// pgno is not cached: it is page 1 of a new file or the page past the end,
// and Rollback discards the pages past the end it restores.
func (p *Pager) freshPage(pgno uint32) *cpage {
	pg := p.frame(pgno)
	clear(pg.data)
	pg.dirty = true
	p.install(pg)
	return pg
}

// frame returns a frame for pgno, not yet cached: an evicted one off the
// spare list, its bytes and directory capacity kept for the caller to
// overwrite, or a new one.
func (p *Pager) frame(pgno uint32) *cpage {
	last := len(p.spare) - 1
	if last < 0 {
		return &cpage{pgno: pgno, node: node{data: make([]byte, PageSize)}}
	}
	pg := p.spare[last]
	p.spare = p.spare[:last]
	*pg = cpage{pgno: pgno, node: node{data: pg.data, dir: pg.dir[:0]}}
	return pg
}

// discard takes pg out of the cache and puts its frame on the spare list,
// unless the list is full or a holder has it pinned: that holder goes on
// reading the dropped frame, which nobody touches again.
func (p *Pager) discard(pg *cpage) {
	p.drop(pg)
	if pg.pins > 0 || p.cached+len(p.spare) >= p.cap+maxSpare {
		return
	}
	if p.guardScans {
		// A holder that should have pinned the frame now reads poison, and
		// a page number that page refuses.
		pg.pgno = 0xDDDDDDDD
		for i := range pg.data {
			pg.data[i] = 0xDD
		}
	}
	p.spare = append(p.spare, pg)
}

// lookup returns the cached frame of pgno, or nil.
func (p *Pager) lookup(pgno uint32) *cpage {
	if int(pgno) < len(p.cache) {
		return p.cache[pgno]
	}
	return nil
}

// install caches pg, whose page number is not cached, as the most
// recently used page.
func (p *Pager) install(pg *cpage) {
	for int(pg.pgno) >= len(p.cache) {
		p.cache = append(p.cache, nil)
	}
	p.cache[pg.pgno] = pg
	p.cached++
	p.touch(pg)
}

// touch makes pg the most recently used page.
func (p *Pager) touch(pg *cpage) {
	if pg.prev != nil {
		pg.prev.next, pg.next.prev = pg.next, pg.prev
	}
	pg.prev, pg.next = &p.recent, p.recent.next
	pg.prev.next, pg.next.prev = pg, pg
}

// drop takes pg out of the cache.
func (p *Pager) drop(pg *cpage) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	p.cache[pg.pgno] = nil
	p.cached--
}

// readPage faults a page in from the file through the window-shared I/O
// buffer.
func (p *Pager) readPage(pgno uint32) error {
	p.e.Work(workPageIO)
	p.Stats.Reads++
	off := uint64(pgno-1) * PageSize
	p.openIOWindow()
	n, errno := p.vfs.PRead(p.e, p.fd, p.ioBuf, PageSize, off)
	p.closeIOWindow()
	if errno != vfscore.EOK {
		return fmt.Errorf("sqldb: read page %d: errno %d", pgno, errno)
	}
	pg := p.frame(pgno)
	p.e.Read(p.ioBuf, pg.data[:n])
	clear(pg.data[n:])
	p.install(pg)
	p.evictIfNeeded()
	return nil
}

// flushPage writes one page back to the file.
func (p *Pager) flushPage(pg *cpage) error {
	p.e.Work(workPageIO)
	p.Stats.Writes++
	p.e.Write(p.ioBuf, pg.data)
	off := uint64(pg.pgno-1) * PageSize
	p.openIOWindow()
	n, errno := p.vfs.PWrite(p.e, p.fd, p.ioBuf, PageSize, off)
	p.closeIOWindow()
	if errno != vfscore.EOK || n != PageSize {
		return fmt.Errorf("sqldb: write page %d: errno %d", pg.pgno, errno)
	}
	pg.dirty = false
	return nil
}

// evictIfNeeded keeps the cache within capacity, spilling dirty pages
// (after their original image is safely in the journal).
func (p *Pager) evictIfNeeded() {
	for p.cached > p.cap {
		victim := p.recent.prev
		if victim.pgno == 1 {
			victim = victim.prev // keep the header resident
		}
		if victim == &p.recent {
			return
		}
		if victim.dirty {
			p.Stats.Spills++
			var err error
			if p.inTxn {
				err = p.spillJournal()
			}
			if err == nil {
				err = p.flushPage(victim)
			}
			if err != nil {
				panic(execErr{err}) // the statement fails; Exec reports it
			}
		}
		// A pinned frame stays with its holders (speedtest's q310 holds its
		// outer page while the inner look-ups evict it); any other is the
		// next miss's.
		p.discard(victim)
	}
}

// page returns the cached page, faulting it in if necessary.
func (p *Pager) page(pgno uint32) *cpage {
	if pg := p.lookup(pgno); pg != nil {
		p.Stats.Hits++
		p.touch(pg)
		return pg
	}
	if pgno == 0 || pgno > p.nPages {
		panic(execErr{fmt.Errorf("sqldb: page %d is past the end of a %d-page file", pgno, p.nPages)})
	}
	p.Stats.Misses++
	if err := p.readPage(pgno); err != nil {
		panic(err)
	}
	return p.cache[pgno]
}

// Get returns a page's contents for reading. Only tests call it: the
// pinned speedtest image (TestSpeedtestImagePinned, the speedtest cell of
// TestStreamDigestsPinned) is the CRC of every page read through it, and
// those reads are part of what the pins hold.
func (p *Pager) Get(pgno uint32) []byte { return p.page(pgno).data }

// node returns a page for the B+tree to read, its cell directory rebuilt
// if the bytes have been handed out raw since it was last used.
func (p *Pager) node(pgno uint32) *cpage {
	pg := p.page(pgno)
	pg.index()
	return pg
}

// beforeWrite records the page's pre-transaction image.
func (p *Pager) beforeWrite(pg *cpage) {
	if !p.inTxn {
		return
	}
	if _, ok := p.origs[pg.pgno]; !ok {
		var orig []byte
		if last := len(p.free) - 1; last >= 0 {
			orig, p.free = p.free[last][:], p.free[:last]
		} else {
			orig = make([]byte, PageSize)
		}
		copy(orig, pg.data)
		p.origs[pg.pgno] = orig
		p.unjournaled = append(p.unjournaled, pg.pgno)
	}
}

// modify returns a page for modification, journaling the original image
// first.
func (p *Pager) modify(pgno uint32) *cpage {
	pg := p.page(pgno)
	if p.guardScans && pg.pins > 0 {
		panic(fmt.Sprintf("sqldb: page %d written while a scan or a row view is reading it", pgno))
	}
	p.beforeWrite(pg)
	pg.dirty = true
	return pg
}

// edit is modify for the B+tree, which keeps the cell directory in step
// with its edits.
func (p *Pager) edit(pgno uint32) *cpage {
	pg := p.modify(pgno)
	pg.index()
	return pg
}

// Write returns a page's contents for modification, for immediate use.
// Whatever the caller does to the bytes, the cell directory is stale.
func (p *Pager) Write(pgno uint32) []byte {
	pg := p.modify(pgno)
	pg.dir = pg.dir[:0]
	return pg.data
}

// Allocate returns a fresh page number by growing the file.
func (p *Pager) Allocate() uint32 {
	p.nPages++
	pgno := p.nPages
	p.beforeWrite(p.freshPage(pgno))
	p.writeHeader()
	p.evictIfNeeded()
	return pgno
}

// NPages returns the database size in pages.
func (p *Pager) NPages() uint32 { return p.nPages }

// CatalogRoot returns the catalog btree root page.
func (p *Pager) CatalogRoot() uint32 { return p.catRoot }

// --- Transactions -----------------------------------------------------------

// InTxn reports whether a transaction is open.
func (p *Pager) InTxn() bool { return p.inTxn }

// Begin opens a transaction.
func (p *Pager) Begin() error {
	if p.inTxn {
		return fmt.Errorf("sqldb: nested transaction")
	}
	p.inTxn = true
	p.jOffset = 0
	return nil
}

// endTxn closes the transaction's journal, on disk and in memory.
func (p *Pager) endTxn() {
	if p.jfd != 0 {
		p.vfs.Close(p.e, p.jfd)
		p.vfs.Unlink(p.e, p.jpath)
		p.jfd = 0
	}
	p.inTxn = false
	for _, orig := range p.origs {
		if orig != nil {
			p.release(orig)
		}
	}
	clear(p.origs)
	p.unjournaled = p.unjournaled[:0]
}

// release takes back the buffer of a pre-image nothing reads any more, for
// the next one beforeWrite records, unless the free list holds as many as
// the cache does: one bulk load must not pin its journal for good.
func (p *Pager) release(orig []byte) {
	if p.guardScans {
		for i := range orig {
			orig[i] = 0xDD // a reader that should have gone to the journal reads poison
		}
	}
	if len(p.free) < p.cap {
		p.free = append(p.free, (*[PageSize]byte)(orig))
	}
}

// spillJournal makes sure every recorded original image is on disk in the
// journal file before a dirty page may overwrite the database (the
// rollback-journal write-ahead rule), and releases each image's buffer
// once the journal holds it. After an error the caller must not write any
// database page.
func (p *Pager) spillJournal() error {
	if p.jfd == 0 {
		fd, errno := p.vfs.Open(p.e, p.jpath, vfscore.OCreat|vfscore.OWronly|vfscore.OTrunc)
		if errno != vfscore.EOK {
			return fmt.Errorf("sqldb: journal open: errno %d", errno)
		}
		p.jfd = fd
	}
	slices.Sort(p.unjournaled)
	for i, pgno := range p.unjournaled {
		orig := p.origs[pgno]
		p.e.Work(workPageIO)
		p.Stats.JournalPages++
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], pgno)
		start := p.jOffset
		for _, part := range [2][]byte{hdr[:], orig} {
			p.e.Write(p.ioBuf, part)
			p.openIOWindow()
			n, errno := p.vfs.PWrite(p.e, p.jfd, p.ioBuf, uint64(len(part)), p.jOffset)
			p.closeIOWindow()
			if errno != vfscore.EOK || n != uint64(len(part)) {
				// The journal ends at the last whole record, which the next
				// spill writes after.
				p.jOffset = start
				p.unjournaled = p.unjournaled[:copy(p.unjournaled, p.unjournaled[i:])]
				return fmt.Errorf("sqldb: journal write of page %d: errno %d", pgno, errno)
			}
			p.jOffset += n
		}
		p.origs[pgno] = nil
		p.release(orig)
	}
	p.unjournaled = p.unjournaled[:0]
	p.Stats.Fsyncs++
	if errno := p.vfs.FSync(p.e, p.jfd); errno != vfscore.EOK {
		return fmt.Errorf("sqldb: journal fsync: errno %d", errno)
	}
	return nil
}

// flushAll writes every dirty cached page in ascending page order (both
// for write locality and so that sparse-file zero-filling behaves
// deterministically).
func (p *Pager) flushAll() error {
	for _, pg := range p.cache {
		if pg != nil && pg.dirty {
			if err := p.flushPage(pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Commit makes the transaction durable: journal to disk, fsync, database
// pages to disk, fsync, journal deleted — the SQLite rollback-journal
// commit protocol, and the source of the OS-interface traffic that makes
// the paper's "group 2" queries expensive.
func (p *Pager) Commit() error {
	if !p.inTxn {
		return fmt.Errorf("sqldb: commit outside transaction")
	}
	p.Stats.Commits++
	if len(p.origs) > 0 {
		if err := p.spillJournal(); err != nil {
			return err
		}
	}
	if err := p.flushAll(); err != nil {
		return err
	}
	errno := p.vfs.FSync(p.e, p.fd)
	p.Stats.Fsyncs++
	if errno != vfscore.EOK {
		// The pages may not be on disk: the journal stays, for Rollback or,
		// after a crash, the next open to put the pre-images back.
		return fmt.Errorf("sqldb: database fsync: errno %d", errno)
	}
	p.endTxn()
	return nil
}

// Rollback restores every page touched by the transaction: first the ones
// whose image went to the journal, from there, then the rest from their
// images in memory. The pages the transaction allocated leave the cache
// unwritten, so the file keeps its length; one that a spill wrote past
// the old end stays in the file, zeroed by the replay, as the VFS has no
// truncate. When the replay fails, the error comes back with the
// transaction still open and the journal in place: what is left is to
// roll back again, or to reopen the database, which recovers from the
// journal.
func (p *Pager) Rollback() error {
	if !p.inTxn {
		return fmt.Errorf("sqldb: rollback outside transaction")
	}
	if p.jfd != 0 {
		if err := p.replayJournal(p.jOffset); err != nil {
			return err
		}
	}
	for pgno, orig := range p.origs {
		if orig == nil {
			continue // replayed
		}
		// A page whose image is in memory is cached: evicting a written
		// page first journals every image.
		pg := p.cache[pgno]
		copy(pg.data, orig)
		pg.dirty, pg.dir = true, pg.dir[:0]
	}
	// Restore header-derived fields.
	hdr := p.page(1)
	p.nPages = binary.LittleEndian.Uint32(hdr.data[8:])
	p.catRoot = binary.LittleEndian.Uint32(hdr.data[12:])
	// Last page first: the next allocation takes the frame of the page
	// number it allocates, with the cell directory's capacity that page had.
	for pgno := len(p.cache) - 1; pgno > int(p.nPages); pgno-- {
		if pg := p.cache[pgno]; pg != nil {
			p.discard(pg)
		}
	}
	if err := p.flushAll(); err != nil {
		return err
	}
	p.endTxn()
	return nil
}

// Close flushes and closes the database file.
func (p *Pager) Close() error {
	if p.inTxn {
		if err := p.Rollback(); err != nil {
			return err
		}
	}
	if err := p.flushAll(); err != nil {
		return err
	}
	p.vfs.Close(p.e, p.fd)
	return nil
}
