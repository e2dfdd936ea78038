package store

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Config sizes a Store. The zero value (plus a Dir) selects the defaults.
type Config struct {
	// Dir is the data directory; it is created if missing.
	Dir string

	// FS is the filesystem implementation; nil selects the real one
	// (fault.OS). Tests inject fault.Faulty / fault.MemFS here.
	FS fault.FS

	// SnapshotEvery folds the WAL into a fresh snapshot segment once a
	// graph's WAL holds this many records. 0 selects 64; negative disables
	// the record threshold.
	SnapshotEvery int

	// SnapshotBytes folds once a graph's WAL exceeds this many bytes.
	// 0 selects 4 MiB; negative disables the byte threshold.
	SnapshotBytes int64
}

// Counters is a snapshot of the store's persistence counters; the service
// surfaces them in /stats. All fields are monotone over the store's lifetime.
type Counters struct {
	WALAppends        int64 `json:"wal_appends"`        // edit batches durably appended
	WALReplayed       int64 `json:"wal_replayed"`       // records replayed during recovery
	WALTruncations    int64 `json:"wal_truncations"`    // torn/corrupt WAL tails cut at recovery
	WALDiscards       int64 `json:"wal_discards"`       // whole WALs dropped (base-generation mismatch or bad header)
	Snapshots         int64 `json:"snapshots"`          // threshold-triggered WAL folds
	SnapshotFailures  int64 `json:"snapshot_failures"`  // failed folds (WAL keeps growing; retried next append)
	SnapshotFallbacks int64 `json:"snapshot_fallbacks"` // corrupt segments skipped for an older generation
	GraphsRecovered   int64 `json:"graphs_recovered"`   // graphs restored by the last Open
	Orphans           int64 `json:"orphans"`            // unusable leftovers swept at recovery (WALs without any snapshot)
}

// Recovered describes one graph restored by Open.
type Recovered struct {
	Name     string
	Graph    *graph.Graph
	Sets     []*graph.NodeSet
	Gen      uint64
	Replayed int  // WAL records replayed over the snapshot
	TornTail bool // the WAL had a torn/corrupt tail that was truncated
	Fallback bool // the newest snapshot was corrupt; an older generation serves
}

// gstate is the store's in-memory bookkeeping for one graph.
type gstate struct {
	name  string
	key   string // filesystem-safe encoding of name
	gen   uint64 // current generation = baseGen + durable WAL records
	base  uint64 // generation of the newest valid snapshot
	wal   fault.File
	nrec  int   // records in the current WAL
	nbyte int64 // bytes in the current WAL (header included)
	nodes int
	edges int
	sets  []string
}

// Store is the persistent graph store. All methods are safe for concurrent
// use; operations on one store are serialized (graph mutations are rare and
// small next to the joins they invalidate).
type Store struct {
	dir       string
	fsys      fault.FS
	snapEvery int
	snapBytes int64

	mu     sync.Mutex
	graphs map[string]*gstate
	ctr    Counters
}

// Open opens (creating if needed) the store rooted at cfg.Dir and runs crash
// recovery: every snapshot segment is checksum-validated (falling back a
// generation when the newest is corrupt), every WAL is truncated to its last
// valid record and replayed, and the surviving graphs are returned for
// registry adoption. Leftover temp files are swept. Open fails only on I/O
// errors or an incompatible (future-version) segment — corruption and torn
// tails are recovery, not failure.
func Open(cfg Config) (*Store, []Recovered, error) {
	s := &Store{
		dir:       cfg.Dir,
		fsys:      cfg.FS,
		snapEvery: cfg.SnapshotEvery,
		snapBytes: cfg.SnapshotBytes,
		graphs:    make(map[string]*gstate),
	}
	if s.fsys == nil {
		s.fsys = fault.OS{}
	}
	if s.snapEvery == 0 {
		s.snapEvery = 64
	}
	if s.snapBytes == 0 {
		s.snapBytes = 4 << 20
	}
	if s.dir == "" {
		return nil, nil, fmt.Errorf("store: empty data dir")
	}
	if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
		return nil, nil, err
	}
	recovered, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	return s, recovered, nil
}

// Close releases every open WAL handle. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, st := range s.graphs {
		if st.wal != nil {
			if err := st.wal.Close(); err != nil && first == nil {
				first = err
			}
			st.wal = nil
		}
	}
	return first
}

// Counters snapshots the persistence counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// Has reports whether name has durable state.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.graphs[name]
	return ok
}

// Gen returns name's current generation (0 if unknown).
func (s *Store) Gen(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.graphs[name]; ok {
		return st.gen
	}
	return 0
}

// Info returns name's last-known shape without loading it.
func (s *Store) Info(name string) (nodes, edges int, gen uint64, sets []string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.graphs[name]
	if !ok {
		return 0, 0, 0, nil, false
	}
	return st.nodes, st.edges, st.gen, append([]string(nil), st.sets...), true
}

// Names lists the persisted graph names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Put durably replaces name's state with a fresh snapshot at the next
// generation and an empty WAL, returning the new generation. The snapshot is
// written crash-atomically; until its rename is directory-synced, recovery
// serves the previous generation.
func (s *Store) Put(name string, g *graph.Graph, sets []*graph.NodeSet) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.graphs[name]
	if !ok {
		key, err := encodeKey(name)
		if err != nil {
			return 0, err
		}
		st = &gstate{name: name, key: key}
	}
	gen := st.gen + 1
	if err := s.writeSegment(st.key, name, gen, g, sets); err != nil {
		return 0, err
	}
	// The snapshot is durable; from here the operation is committed even if
	// the WAL reset below fails (recovery discards a WAL whose base
	// generation predates the newest snapshot).
	st.gen, st.base = gen, gen
	st.nodes, st.edges, st.sets = g.NumNodes(), g.NumEdges(), setNames(sets)
	s.graphs[name] = st
	err := s.resetWAL(st, gen)
	s.prune(st.key, gen)
	if err != nil {
		return gen, fmt.Errorf("store: snapshot of %q durable at gen %d, wal reset failed (retried on next edit): %w", name, gen, err)
	}
	return gen, nil
}

// AppendEdits durably appends one atomic edit batch to name's WAL and bumps
// its generation; g and sets must be the post-edit state (used to fold the
// WAL into a snapshot once a threshold trips, and to refresh Info). The
// batch is committed once the WAL fsync returns; a threshold-triggered
// snapshot failure never fails the edit (the WAL simply keeps growing until
// a later fold succeeds).
func (s *Store) AppendEdits(name string, adds []graph.Edge, dels [][2]graph.NodeID, g *graph.Graph, sets []*graph.NodeSet) (gen uint64, snapshotted bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.graphs[name]
	if !ok {
		return 0, false, fmt.Errorf("store: no persisted graph %q", name)
	}
	if st.wal == nil {
		// A previous reset failed; rebuild a clean WAL (all committed edits
		// up to st.gen are in the snapshot or unreachable by construction).
		if err := s.resetWAL(st, st.gen); err != nil {
			return 0, false, err
		}
	}
	if n := walBodyLen(adds, dels); n > maxWALRecord {
		// Recovery reads a longer body as a torn tail, so this batch would
		// be acknowledged now and dropped at the next boot.
		return 0, false, fmt.Errorf("store: edit batch of %d bytes exceeds the %d-byte wal record limit", n, maxWALRecord)
	}
	rec := encodeWALRecord(adds, dels)
	if _, err := st.wal.Write(rec); err != nil {
		return 0, false, err // torn tail; recovery truncates it
	}
	if err := st.wal.Sync(); err != nil {
		return 0, false, err // not durable; the edit is not committed
	}
	st.gen++
	st.nrec++
	st.nbyte += int64(len(rec))
	st.nodes, st.edges, st.sets = g.NumNodes(), g.NumEdges(), setNames(sets)
	s.ctr.WALAppends++
	if (s.snapEvery > 0 && st.nrec >= s.snapEvery) || (s.snapBytes > 0 && st.nbyte >= s.snapBytes) {
		if err := s.writeSegment(st.key, name, st.gen, g, sets); err != nil {
			s.ctr.SnapshotFailures++
		} else {
			st.base = st.gen
			if err := s.resetWAL(st, st.gen); err != nil {
				st.wal = nil // lazily rebuilt by the next edit
			}
			s.prune(st.key, st.gen)
			s.ctr.Snapshots++
			snapshotted = true
		}
	}
	return st.gen, snapshotted, nil
}

// Delete durably removes name's on-disk state. Removal order (oldest
// snapshots first, WAL last) keeps every crash point prefix-consistent: a
// partially deleted graph recovers either fully present (at its newest
// generation) or fully absent.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.graphs[name]
	if !ok {
		return fmt.Errorf("store: no persisted graph %q", name)
	}
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	gens, err := s.segGens(st.key)
	if err != nil {
		return err
	}
	for _, gen := range gens { // ascending: newest goes last
		if err := s.fsys.Remove(filepath.Join(s.dir, segFile(st.key, gen))); err != nil {
			return err
		}
	}
	if err := s.fsys.Remove(filepath.Join(s.dir, walFile(st.key))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return err
	}
	delete(s.graphs, name)
	return nil
}

// Load reconstructs name from disk (newest valid snapshot + WAL replay)
// without touching the append handle — the lazy-reload path for graphs
// evicted from the in-memory registry.
func (s *Store) Load(name string) (*graph.Graph, []*graph.NodeSet, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.graphs[name]
	if !ok {
		return nil, nil, 0, fmt.Errorf("store: no persisted graph %q", name)
	}
	sd, _, err := s.readNewestSegment(st.key)
	if err != nil {
		return nil, nil, 0, err
	}
	if sd == nil {
		return nil, nil, 0, fmt.Errorf("store: no readable snapshot for %q", name)
	}
	g, sets, gen := sd.g, sd.sets, sd.gen
	if walBytes, err := s.readFile(walFile(st.key)); err == nil {
		if baseGen, recs, _, _, err := scanWAL(walBytes); err == nil && baseGen == sd.gen {
			for _, rec := range recs {
				if g, err = graph.ApplyEdits(g, rec.adds, rec.dels); err != nil {
					break
				}
				gen++
			}
		}
	}
	return g, sets, gen, nil
}

// --- recovery ---

func (s *Store) recover() ([]Recovered, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	segs := make(map[string][]uint64) // key → generations present
	wals := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fsys.Remove(filepath.Join(s.dir, name)) // crashed atomic write; sweep
			continue
		}
		if key, gen, ok := parseSegFile(name); ok {
			segs[key] = append(segs[key], gen)
			continue
		}
		if key, ok := parseWALFile(name); ok {
			wals[key] = true
		}
	}

	keys := make([]string, 0, len(segs))
	for key := range segs {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	var out []Recovered
	for _, key := range keys {
		rec, err := s.recoverGraph(key, segs[key], wals[key])
		if err != nil {
			return nil, err
		}
		delete(wals, key)
		if rec != nil {
			out = append(out, *rec)
		}
	}
	// WALs with no snapshot at all (crashed deletes): unusable, sweep them.
	for key := range wals {
		s.ctr.Orphans++
		_ = s.fsys.Remove(filepath.Join(s.dir, walFile(key)))
	}
	s.ctr.GraphsRecovered = int64(len(out))
	return out, nil
}

// recoverGraph restores one key: newest valid snapshot, WAL truncation and
// replay, and a fresh append handle. Returns nil (no error) when every
// snapshot generation is corrupt — the graph is lost, but startup proceeds.
func (s *Store) recoverGraph(key string, gens []uint64, hasWAL bool) (*Recovered, error) {
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	var sd *segmentData
	fallback := false
	for i, gen := range gens {
		b, err := s.readFile(segFile(key, gen))
		if err == nil {
			var derr error
			if sd, derr = decodeSegment(b); derr == nil {
				fallback = i > 0
				break
			}
			err = derr
		}
		if errors.Is(err, ErrIncompatibleSegment) {
			return nil, fmt.Errorf("store: %s: %w", segFile(key, gen), err)
		}
		s.ctr.SnapshotFallbacks++
	}
	if sd == nil {
		if hasWAL {
			s.ctr.Orphans++
			_ = s.fsys.Remove(filepath.Join(s.dir, walFile(key)))
		}
		return nil, nil
	}

	st := &gstate{name: sd.name, key: key, gen: sd.gen, base: sd.gen}
	rec := &Recovered{Name: sd.name, Graph: sd.g, Sets: sd.sets, Gen: sd.gen, Fallback: fallback}
	walValid := false
	if hasWAL {
		walBytes, err := s.readFile(walFile(key))
		if err == nil {
			baseGen, recs, validLen, torn, scanErr := scanWAL(walBytes)
			switch {
			case scanErr != nil && errors.Is(scanErr, ErrIncompatibleSegment):
				return nil, fmt.Errorf("store: %s: %w", walFile(key), scanErr)
			case scanErr != nil || baseGen != sd.gen:
				// Unreadable header or a WAL left behind by an older
				// snapshot: its edits are folded or unreachable; drop it.
				s.ctr.WALDiscards++
			default:
				g := sd.g
				replayed := 0
				for _, r := range recs {
					next, err := graph.ApplyEdits(g, r.adds, r.dels)
					if err != nil {
						torn = true // CRC-valid but inapplicable: cut here
						break
					}
					g = next
					replayed++
				}
				if replayed < len(recs) {
					// Re-derive the truncation offset for the records kept.
					validLen = validPrefixLen(walBytes, replayed)
				}
				if torn {
					if err := s.truncateWAL(key, validLen); err != nil {
						return nil, err
					}
					s.ctr.WALTruncations++
					rec.TornTail = true
				}
				rec.Graph, rec.Gen = g, sd.gen+uint64(replayed)
				rec.Replayed = replayed
				s.ctr.WALReplayed += int64(replayed)
				st.gen = rec.Gen
				st.nrec = replayed
				st.nbyte = validLen
				walValid = true
			}
		}
	}
	if !walValid {
		if err := s.resetWAL(st, st.base); err != nil {
			st.wal = nil // lazily rebuilt by the next edit
		}
	} else if err := s.openWALAppend(st); err != nil {
		st.wal = nil
	}
	st.nodes, st.edges, st.sets = rec.Graph.NumNodes(), rec.Graph.NumEdges(), setNames(rec.Sets)
	s.graphs[sd.name] = st
	return rec, nil
}

// validPrefixLen returns the byte length of the header plus the first n
// records of a structurally valid WAL image.
func validPrefixLen(b []byte, n int) int64 {
	off := int64(walHeaderLen)
	for i := 0; i < n; i++ {
		bodyLen := int64(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		off += 8 + bodyLen
	}
	return off
}

// --- file plumbing ---

func (s *Store) readFile(base string) ([]byte, error) {
	f, err := s.fsys.OpenFile(filepath.Join(s.dir, base), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f)
}

// writeSegment writes one snapshot crash-atomically: temp file → fsync →
// rename → directory fsync.
func (s *Store) writeSegment(key, name string, gen uint64, g *graph.Graph, sets []*graph.NodeSet) error {
	final := filepath.Join(s.dir, segFile(key, gen))
	tmp := final + ".tmp"
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(encodeSegment(name, gen, g, sets))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, final); err != nil {
		_ = s.fsys.Remove(tmp)
		return err
	}
	return s.fsys.SyncDir(s.dir)
}

// resetWAL atomically replaces key's WAL with an empty one based at baseGen
// and opens the append handle.
func (s *Store) resetWAL(st *gstate, baseGen uint64) error {
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	final := filepath.Join(s.dir, walFile(st.key))
	tmp := final + ".tmp"
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(encodeWALHeader(baseGen))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, final); err != nil {
		_ = s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return err
	}
	st.base = baseGen
	st.nrec = 0
	st.nbyte = walHeaderLen
	return s.openWALAppend(st)
}

func (s *Store) openWALAppend(st *gstate) error {
	f, err := s.fsys.OpenFile(filepath.Join(s.dir, walFile(st.key)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.wal = f
	return nil
}

// truncateWAL cuts a torn tail and makes the cut durable.
func (s *Store) truncateWAL(key string, validLen int64) error {
	f, err := s.fsys.OpenFile(filepath.Join(s.dir, walFile(key)), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(validLen)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readNewestSegment returns the newest decodable snapshot for key (nil if
// none decodes).
func (s *Store) readNewestSegment(key string) (*segmentData, uint64, error) {
	gens, err := s.segGens(key)
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		b, err := s.readFile(segFile(key, gens[i]))
		if err != nil {
			continue
		}
		if sd, err := decodeSegment(b); err == nil {
			return sd, gens[i], nil
		}
	}
	return nil, 0, nil
}

// segGens lists key's snapshot generations, ascending.
func (s *Store) segGens(key string) ([]uint64, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if k, gen, ok := parseSegFile(e.Name()); ok && k == key {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// prune removes key's snapshots older than the previous generation, keeping
// the newest two for corrupt-snapshot fallback. Best effort: a leftover
// segment only costs disk.
func (s *Store) prune(key string, newest uint64) {
	gens, err := s.segGens(key)
	if err != nil {
		return
	}
	kept := 0
	for i := len(gens) - 1; i >= 0; i-- {
		if gens[i] > newest {
			continue // never remove something newer than what we just wrote
		}
		kept++
		if kept <= 2 {
			continue
		}
		_ = s.fsys.Remove(filepath.Join(s.dir, segFile(key, gens[i])))
	}
}

// --- naming ---

// encodeKey maps a graph name to a filesystem-safe key (reversibility is a
// courtesy for operators; the payload's embedded name is the source of truth
// at recovery).
func encodeKey(name string) (string, error) {
	key := url.QueryEscape(name)
	if len(key) > 200 {
		return "", fmt.Errorf("store: graph name too long to persist (%d bytes escaped)", len(key))
	}
	return key, nil
}

func segFile(key string, gen uint64) string {
	return fmt.Sprintf("%s-%016x.seg", key, gen)
}

func walFile(key string) string { return key + ".wal" }

func parseSegFile(base string) (key string, gen uint64, ok bool) {
	rest, found := strings.CutSuffix(base, ".seg")
	if !found {
		return "", 0, false
	}
	i := strings.LastIndexByte(rest, '-')
	if i < 0 || len(rest)-i-1 != 16 {
		return "", 0, false
	}
	gen, err := strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], gen, true
}

func parseWALFile(base string) (key string, ok bool) {
	return strings.CutSuffix(base, ".wal")
}

func setNames(sets []*graph.NodeSet) []string {
	out := make([]string, 0, len(sets))
	for _, s := range sets {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}
