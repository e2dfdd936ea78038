package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func openTest(t *testing.T, dir string, every int) (*Store, []Recovered) {
	t.Helper()
	s, recs, err := Open(Config{Dir: dir, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, recs
}

// listFiles returns the non-directory entries of dir with a given suffix.
func listFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestStorePutLoadReopen(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)

	s, recs := openTest(t, dir, 0)
	if len(recs) != 0 {
		t.Fatalf("fresh dir recovered %d graphs", len(recs))
	}
	gen, err := s.Put("alpha", g, sets)
	if err != nil || gen != 1 {
		t.Fatalf("Put = (%d, %v), want (1, nil)", gen, err)
	}
	if !s.Has("alpha") || s.Gen("alpha") != 1 {
		t.Fatalf("Has/Gen after Put: %v/%d", s.Has("alpha"), s.Gen("alpha"))
	}
	nodes, edges, igen, names, ok := s.Info("alpha")
	if !ok || nodes != g.NumNodes() || edges != g.NumEdges() || igen != 1 ||
		len(names) != 2 || names[0] != "D" || names[1] != "U" {
		t.Fatalf("Info = (%d, %d, %d, %v, %v)", nodes, edges, igen, names, ok)
	}
	lg, lsets, lgen, err := s.Load("alpha")
	if err != nil || lgen != 1 || !graphEqual(g, lg) {
		t.Fatalf("Load: gen=%d err=%v equal=%v", lgen, err, graphEqual(g, lg))
	}
	if len(lsets) != 2 {
		t.Fatalf("Load returned %d sets", len(lsets))
	}
	s.Close()

	s2, recs := openTest(t, dir, 0)
	if len(recs) != 1 || recs[0].Name != "alpha" || recs[0].Gen != 1 ||
		recs[0].Replayed != 0 || recs[0].TornTail || recs[0].Fallback {
		t.Fatalf("reopen recovered %+v", recs)
	}
	if !graphEqual(g, recs[0].Graph) || !setsEqual(sets, recs[0].Sets) {
		t.Fatal("recovered graph/sets differ from what was put")
	}
	if names := s2.Names(); len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("Names = %v", names)
	}
}

func TestStoreAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	g0, sets := testGraph(t)

	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g0, sets); err != nil {
		t.Fatal(err)
	}
	g := g0
	batches := [][]graph.Edge{
		{{U: 0, V: 5, W: 4}},
		{{U: 5, V: 2, W: 1.5}, {U: 1, V: 4, W: 2}},
		{{U: 3, V: 0, W: 0.25}},
	}
	for i, adds := range batches {
		next, err := graph.ApplyEdits(g, adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		gen, snapped, err := s.AppendEdits("alpha", adds, nil, next, sets)
		if err != nil || snapped || gen != uint64(2+i) {
			t.Fatalf("append %d: gen=%d snapped=%v err=%v", i, gen, snapped, err)
		}
		g = next
	}
	if ctr := s.Counters(); ctr.WALAppends != 3 {
		t.Fatalf("WALAppends = %d, want 3", ctr.WALAppends)
	}
	// Load replays the WAL without disturbing the append handle.
	lg, _, lgen, err := s.Load("alpha")
	if err != nil || lgen != 4 || !graphEqual(g, lg) {
		t.Fatalf("Load mid-WAL: gen=%d err=%v", lgen, err)
	}
	s.Close()

	s2, recs := openTest(t, dir, 0)
	if len(recs) != 1 || recs[0].Gen != 4 || recs[0].Replayed != 3 || recs[0].TornTail {
		t.Fatalf("reopen recovered %+v", recs)
	}
	if !graphEqual(g, recs[0].Graph) {
		t.Fatal("replayed graph differs from the live one")
	}
	if ctr := s2.Counters(); ctr.WALReplayed != 3 || ctr.GraphsRecovered != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	// The recovered WAL stays appendable.
	next, err := graph.ApplyEdits(g, []graph.Edge{{U: 2, V: 5, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen, _, err := s2.AppendEdits("alpha", []graph.Edge{{U: 2, V: 5, W: 1}}, nil, next, sets); err != nil || gen != 5 {
		t.Fatalf("append after recovery: gen=%d err=%v", gen, err)
	}
}

// TestStoreRejectsOversizedBatch: recovery reads a record body past
// maxWALRecord as a torn tail, so AppendEdits must refuse such a batch
// rather than acknowledge an edit the next boot would drop.
func TestStoreRejectsOversizedBatch(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	dels := make([][2]graph.NodeID, maxWALRecord/8)
	if gen, _, err := s.AppendEdits("alpha", nil, dels, g, sets); err == nil {
		t.Fatalf("oversized batch acknowledged at gen %d", gen)
	}
	if ctr := s.Counters(); ctr.WALAppends != 0 {
		t.Fatalf("WALAppends = %d after a refused batch", ctr.WALAppends)
	}
	if gen, _, err := s.AppendEdits("alpha", nil, dels[:1], g, sets); err != nil || gen != 2 {
		t.Fatalf("append after the refusal: gen=%d err=%v", gen, err)
	}
}

func TestStoreSnapshotFoldAndPrune(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)

	s, _ := openTest(t, dir, 2) // fold every 2 records
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		adds := []graph.Edge{{U: graph.NodeID(i % 6), V: graph.NodeID((i + 2) % 6), W: 1}}
		next, err := graph.ApplyEdits(g, adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, snapped, err := s.AppendEdits("alpha", adds, nil, next, sets)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; snapped != want {
			t.Fatalf("append %d: snapshotted=%v, want %v", i, snapped, want)
		}
		g = next
	}
	if ctr := s.Counters(); ctr.Snapshots != 3 || ctr.SnapshotFailures != 0 {
		t.Fatalf("counters = %+v", ctr)
	}
	if segs := listFiles(t, dir, ".seg"); len(segs) > 2 {
		t.Fatalf("prune left %d segments: %v", len(segs), segs)
	}
	s.Close()

	// All six edits are folded; the reopen replays nothing.
	_, recs := openTest(t, dir, 2)
	if len(recs) != 1 || recs[0].Gen != 7 || recs[0].Replayed != 0 {
		t.Fatalf("reopen recovered %+v", recs)
	}
	if !graphEqual(g, recs[0].Graph) {
		t.Fatal("folded graph differs from the live one")
	}
}

func TestStoreDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)

	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if s.Has("alpha") {
		t.Fatal("Has after Delete")
	}
	if err := s.Delete("alpha"); err == nil {
		t.Fatal("double Delete succeeded")
	}
	if segs, wals := listFiles(t, dir, ".seg"), listFiles(t, dir, ".wal"); len(segs)+len(wals) != 0 {
		t.Fatalf("files left after Delete: %v %v", segs, wals)
	}
	s.Close()
	if _, recs := openTest(t, dir, 0); len(recs) != 0 {
		t.Fatalf("deleted graph recovered: %+v", recs)
	}
}

func TestStoreSweepsTmpAndOrphanWAL(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A crashed atomic write leaves a temp file; a crashed delete leaves a
	// WAL with no snapshot. Both must be swept, neither may fail recovery.
	if err := os.WriteFile(filepath.Join(dir, "ghost-0000000000000003.seg.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ghost.wal"), encodeWALHeader(3), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recs := openTest(t, dir, 0)
	if len(recs) != 1 || recs[0].Name != "alpha" {
		t.Fatalf("recovered %+v", recs)
	}
	if ctr := s2.Counters(); ctr.Orphans != 1 {
		t.Fatalf("Orphans = %d, want 1", ctr.Orphans)
	}
	if tmps := listFiles(t, dir, ".tmp"); len(tmps) != 0 {
		t.Fatalf("tmp files left: %v", tmps)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan wal not swept: %v", err)
	}
}

func TestStoreCorruptNewestFallsBack(t *testing.T) {
	dir := t.TempDir()
	g1, sets := testGraph(t)
	g2, err := graph.ApplyEdits(g1, []graph.Edge{{U: 0, V: 4, W: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g1, sets); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("alpha", g2, sets); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest segment's payload; recovery must fall back to gen 1
	// and discard the gen-2 WAL (its base generation no longer exists).
	seg2 := filepath.Join(dir, segFile("alpha", 2))
	b, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderLen+5] ^= 0xff
	if err := os.WriteFile(seg2, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, recs := openTest(t, dir, 0)
	if len(recs) != 1 || recs[0].Gen != 1 || !recs[0].Fallback {
		t.Fatalf("recovered %+v", recs)
	}
	if !graphEqual(g1, recs[0].Graph) {
		t.Fatal("fallback graph is not the gen-1 snapshot")
	}
	ctr := s2.Counters()
	if ctr.SnapshotFallbacks != 1 || ctr.WALDiscards != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	// The degraded graph remains editable at its recovered generation.
	next, err := graph.ApplyEdits(g1, []graph.Edge{{U: 1, V: 5, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen, _, err := s2.AppendEdits("alpha", []graph.Edge{{U: 1, V: 5, W: 1}}, nil, next, sets); err != nil || gen != 2 {
		t.Fatalf("append after fallback: gen=%d err=%v", gen, err)
	}
}

func TestStoreAllSnapshotsCorruptLosesGraphNotStartup(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("beta", g, sets); err != nil {
		t.Fatal(err)
	}
	s.Close()

	seg := filepath.Join(dir, segFile("alpha", 1))
	b, _ := os.ReadFile(seg)
	b[segHeaderLen] ^= 0xff
	os.WriteFile(seg, b, 0o644)

	s2, recs := openTest(t, dir, 0)
	if len(recs) != 1 || recs[0].Name != "beta" {
		t.Fatalf("recovered %+v, want just beta", recs)
	}
	// alpha's now-useless WAL is swept with it.
	if ctr := s2.Counters(); ctr.Orphans != 1 || ctr.SnapshotFallbacks != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestStoreFutureVersionSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	s, _ := openTest(t, dir, 0)
	if _, err := s.Put("alpha", g, sets); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Patch the segment to a future version with a valid header CRC: the file
	// is intact, just from a newer build. Open must refuse, not fall back.
	seg := filepath.Join(dir, segFile("alpha", 1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:6], segVersion+1)
	binary.LittleEndian.PutUint32(b[20:24], crc32.Checksum(b[:20], castagnoli))
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrIncompatibleSegment) {
		t.Fatalf("Open over future segment: err = %v, want ErrIncompatibleSegment", err)
	}
}

// TestStoreTornWALEveryCut reopens the store after truncating the WAL at
// every possible byte offset: recovery must always succeed, always land on a
// record boundary, and always yield the graph of exactly that many edits.
func TestStoreTornWALEveryCut(t *testing.T) {
	srcDir := t.TempDir()
	g0, sets := testGraph(t)
	s, _ := openTest(t, srcDir, 0)
	if _, err := s.Put("alpha", g0, sets); err != nil {
		t.Fatal(err)
	}
	states := []*graph.Graph{g0}
	g := g0
	for i := 0; i < 3; i++ {
		adds := []graph.Edge{{U: graph.NodeID(i), V: graph.NodeID(i + 3), W: float64(i) + 0.5}}
		next, err := graph.ApplyEdits(g, adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.AppendEdits("alpha", adds, nil, next, sets); err != nil {
			t.Fatal(err)
		}
		g = next
		states = append(states, g)
	}
	s.Close()

	walPath := filepath.Join(srcDir, walFile("alpha"))
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	segName := listFiles(t, srcDir, ".seg")[0]
	seg, err := os.ReadFile(filepath.Join(srcDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries, for mapping a cut to its expected replay count.
	bounds := []int64{walHeaderLen}
	for i := 1; i <= 3; i++ {
		bounds = append(bounds, validPrefixLen(wal, i))
	}

	for cut := walHeaderLen; cut <= len(wal); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFile("alpha")), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, recs, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		replayed := 0
		for i, b := range bounds {
			if int64(cut) >= b {
				replayed = i
			}
		}
		torn := int64(cut) != bounds[replayed]
		if len(recs) != 1 || recs[0].Replayed != replayed || recs[0].TornTail != torn ||
			recs[0].Gen != uint64(1+replayed) {
			t.Fatalf("cut %d: recovered %+v, want replayed=%d torn=%v", cut, recs, replayed, torn)
		}
		if !graphEqual(states[replayed], recs[0].Graph) {
			t.Fatalf("cut %d: graph is not the %d-edit state", cut, replayed)
		}
		if torn {
			if ctr := s2.Counters(); ctr.WALTruncations != 1 {
				t.Fatalf("cut %d: WALTruncations = %d", cut, ctr.WALTruncations)
			}
			// The truncation is durable: the WAL on disk now ends at the boundary.
			if fi, err := os.Stat(filepath.Join(dir, walFile("alpha"))); err != nil || fi.Size() != bounds[replayed] {
				t.Fatalf("cut %d: wal not truncated to %d: %v", cut, bounds[replayed], err)
			}
		}
		// Recovery leaves an appendable WAL regardless of where the tear was.
		adds := []graph.Edge{{U: 5, V: 1, W: 2}}
		next, err := graph.ApplyEdits(states[replayed], adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gen, _, err := s2.AppendEdits("alpha", adds, nil, next, sets); err != nil || gen != uint64(2+replayed) {
			t.Fatalf("cut %d: append after recovery: gen=%d err=%v", cut, gen, err)
		}
		s2.Close()
	}
}

// TestStoreWALByteFlips corrupts each byte of the WAL in turn: header flips
// discard the whole WAL, record flips truncate to a valid prefix. Recovery
// never fails and never serves a state outside the committed sequence.
func TestStoreWALByteFlips(t *testing.T) {
	srcDir := t.TempDir()
	g0, sets := testGraph(t)
	s, _ := openTest(t, srcDir, 0)
	if _, err := s.Put("alpha", g0, sets); err != nil {
		t.Fatal(err)
	}
	states := []*graph.Graph{g0}
	g := g0
	for i := 0; i < 2; i++ {
		adds := []graph.Edge{{U: graph.NodeID(i), V: 5, W: 1}}
		next, err := graph.ApplyEdits(g, adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.AppendEdits("alpha", adds, nil, next, sets); err != nil {
			t.Fatal(err)
		}
		g = next
		states = append(states, g)
	}
	s.Close()

	wal, err := os.ReadFile(filepath.Join(srcDir, walFile("alpha")))
	if err != nil {
		t.Fatal(err)
	}
	segName := listFiles(t, srcDir, ".seg")[0]
	seg, _ := os.ReadFile(filepath.Join(srcDir, segName))

	for i := range wal {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, segName), seg, 0o644)
		os.WriteFile(filepath.Join(dir, walFile("alpha")), flipByte(wal, i), 0o644)
		s2, recs, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		if len(recs) != 1 {
			t.Fatalf("flip %d: recovered %d graphs", i, len(recs))
		}
		match := false
		for _, st := range states {
			if graphEqual(st, recs[0].Graph) {
				match = true
				break
			}
		}
		if !match {
			t.Fatalf("flip %d: recovered graph matches no committed state (replayed %d)", i, recs[0].Replayed)
		}
		if i < walHeaderLen {
			if ctr := s2.Counters(); ctr.WALDiscards != 1 || recs[0].Replayed != 0 {
				t.Fatalf("flip %d in header: counters %+v, replayed %d", i, ctr, recs[0].Replayed)
			}
		}
		s2.Close()
	}
}

func TestStoreNameEncoding(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	s, _ := openTest(t, dir, 0)
	// Names with separators, spaces, and dots must round-trip through the
	// filename encoding and the payload's embedded name.
	names := []string{"a/b c", "trailing.", "per-cent%40", "плотность"}
	for _, name := range names {
		if _, err := s.Put(name, g, sets); err != nil {
			t.Fatalf("Put %q: %v", name, err)
		}
	}
	if _, err := s.Put(strings.Repeat("x", 300), g, sets); err == nil {
		t.Fatal("oversized name accepted")
	}
	s.Close()
	s2, recs := openTest(t, dir, 0)
	if len(recs) != len(names) {
		t.Fatalf("recovered %d graphs, want %d", len(recs), len(names))
	}
	for _, name := range names {
		if !s2.Has(name) {
			t.Fatalf("name %q did not survive recovery", name)
		}
	}
}
