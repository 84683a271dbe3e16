package cluster

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"xmorph/internal/engine"
	"xmorph/internal/gen/xmark"
)

// The differential oracle: every cluster verb is checked against a
// single-engine control running the identical workload. The cluster is
// pure routing — sharding and replication must never change a byte of
// any answer.

const diffGuard = "MORPH author [ name title ]"

// docXML generates deterministic per-document content with some
// structural variety (book count and author reuse vary by index).
func docXML(i int) string {
	var b strings.Builder
	b.WriteString("<data>")
	for j := 0; j < 3+i%4; j++ {
		fmt.Fprintf(&b, "<book><title>T%d-%d</title><author><name>A%d</name></author></book>", i, j, j%3)
	}
	b.WriteString("</data>")
	return b.String()
}

func docName(i int) string { return fmt.Sprintf("doc-%02d", i) }

// runXML is the compact XML a Run of guard over name writes.
func runXML(b engine.Backend, name, guard string) (string, error) {
	var out strings.Builder
	_, err := b.Run(context.Background(), name, guard, engine.RunOpts{StreamTo: &out})
	return out.String(), err
}

func newTestCluster(t *testing.T, shards, replicas int) *Cluster {
	t.Helper()
	c, err := New(Config{Shards: shards, Replicas: replicas, VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func shredBoth(t *testing.T, c *Cluster, ctl *engine.Engine, i int) {
	t.Helper()
	ctx := context.Background()
	xml := docXML(i)
	ci, err := c.Shred(ctx, docName(i), strings.NewReader(xml), nil)
	if err != nil {
		t.Fatalf("cluster shred %s: %v", docName(i), err)
	}
	ei, err := ctl.Shred(ctx, docName(i), strings.NewReader(xml), nil)
	if err != nil {
		t.Fatalf("control shred %s: %v", docName(i), err)
	}
	if ci.Nodes != ei.Nodes || ci.Types != ei.Types {
		t.Fatalf("shred info diverges for %s: cluster %d/%d control %d/%d",
			docName(i), ci.Nodes, ci.Types, ei.Nodes, ei.Types)
	}
}

// assertVerbsMatch runs every read verb on both sides for one document
// and requires byte-identical answers.
func assertVerbsMatch(t *testing.T, c *Cluster, ctl *engine.Engine, name string) {
	t.Helper()
	ctx := context.Background()

	// Shape.
	cs, err := c.Shape(ctx, name, nil)
	if err != nil {
		t.Fatalf("cluster shape %s: %v", name, err)
	}
	es, err := ctl.Shape(ctx, name, nil)
	if err != nil {
		t.Fatalf("control shape %s: %v", name, err)
	}
	if cs.String() != es.String() {
		t.Fatalf("shape diverges for %s:\n%s\nvs\n%s", name, cs, es)
	}

	// Run, compact and indented, with its loss report and verdict.
	for _, indent := range []bool{false, true} {
		var cst, est strings.Builder
		cr, err := c.Run(ctx, name, diffGuard, engine.RunOpts{StreamTo: &cst, Indent: indent})
		if err != nil {
			t.Fatalf("cluster run %s: %v", name, err)
		}
		er, err := ctl.Run(ctx, name, diffGuard, engine.RunOpts{StreamTo: &est, Indent: indent})
		if err != nil {
			t.Fatalf("control run %s: %v", name, err)
		}
		if cr.Loss.String() != er.Loss.String() || cr.Loss.Verdict != er.Loss.Verdict {
			t.Fatalf("loss diverges for %s: %q/%v vs %q/%v",
				name, cr.Loss, cr.Loss.Verdict, er.Loss, er.Loss.Verdict)
		}
		if cst.String() != est.String() {
			t.Fatalf("run output (indent %v) diverges for %s:\n%q\nvs\n%q", indent, name, cst.String(), est.String())
		}
	}

	// Query.
	q := fmt.Sprintf(`for $a in doc(%q)//author return string($a/name)`, name)
	cq, err := c.Query(ctx, name, diffGuard, q, engine.QueryOpts{})
	if err != nil {
		t.Fatalf("cluster query %s: %v", name, err)
	}
	eq, err := ctl.Query(ctx, name, diffGuard, q, engine.QueryOpts{})
	if err != nil {
		t.Fatalf("control query %s: %v", name, err)
	}
	if cq.Answer != eq.Answer {
		t.Fatalf("query answer diverges for %s: %q vs %q", name, cq.Answer, eq.Answer)
	}
	if cq.KeptTypes != eq.KeptTypes || cq.TotalTypes != eq.TotalTypes {
		t.Fatalf("projection stats diverge for %s: %d/%d vs %d/%d",
			name, cq.KeptTypes, cq.TotalTypes, eq.KeptTypes, eq.TotalTypes)
	}
}

func assertDocsMatch(t *testing.T, c *Cluster, ctl *engine.Engine) {
	t.Helper()
	ctx := context.Background()
	cd, err := c.Docs(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := ctl.Docs(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(cd, ",") != strings.Join(ed, ",") {
		t.Fatalf("doc listings diverge:\n%v\nvs\n%v", cd, ed)
	}
}

func TestClusterDifferentialOracle(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 3, 2)
	ctl := engine.OpenMemory()
	defer ctl.Close()

	const docs = 16
	for i := 0; i < docs; i++ {
		shredBoth(t, c, ctl, i)
	}
	assertDocsMatch(t, c, ctl)
	for i := 0; i < docs; i++ {
		assertVerbsMatch(t, c, ctl, docName(i))
	}

	// Drops mirror too, and the dropped names 404 identically.
	for _, i := range []int{2, 7, 11} {
		if err := c.Drop(ctx, docName(i), nil); err != nil {
			t.Fatalf("cluster drop: %v", err)
		}
		if err := ctl.Drop(ctx, docName(i), nil); err != nil {
			t.Fatalf("control drop: %v", err)
		}
	}
	assertDocsMatch(t, c, ctl)
	if _, err := c.Run(ctx, docName(7), diffGuard, engine.RunOpts{StreamTo: io.Discard}); err == nil {
		t.Fatal("cluster served a dropped document")
	}

	// Re-shred one dropped name with different content: the fresh shred
	// version must serve the new bytes on both sides.
	v2 := `<data><book><title>V2</title><author><name>New</name></author></book></data>`
	if _, err := c.Shred(ctx, docName(7), strings.NewReader(v2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Shred(ctx, docName(7), strings.NewReader(v2), nil); err != nil {
		t.Fatal(err)
	}
	assertVerbsMatch(t, c, ctl, docName(7))

	// Error surface parity: duplicate shred and unknown-name verbs map to
	// the same sentinel errors the HTTP layer switches on.
	if _, err := c.Shred(ctx, docName(0), strings.NewReader(docXML(0)), nil); err == nil {
		t.Fatal("duplicate shred succeeded on cluster")
	}
	if _, err := c.Shape(ctx, "nope", nil); err == nil {
		t.Fatal("shape of unknown doc succeeded on cluster")
	}
}

// TestClusterUpdateDifferential: in-place updates routed through a
// 2-shard cluster (with replicas, so the read-your-writes floor is live)
// must leave every verb byte-identical to a single-engine control
// running the same edit scripts — and to a drop + re-shred of the edited
// document, via the control engine's own differential guarantee.
func TestClusterUpdateDifferential(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 2, 1)
	ctl := engine.OpenMemory()
	defer ctl.Close()

	const docs = 6
	for i := 0; i < docs; i++ {
		shredBoth(t, c, ctl, i)
	}
	scripts := []string{
		`insert <author><name>Z</name></author> into data.book`,
		`replace data.book.title with <title>patched</title>`,
		`insert <note>n</note> before data.book.author ; delete data.book.note`,
	}
	for i := 0; i < docs; i++ {
		for _, script := range scripts {
			ci, err := c.Update(ctx, docName(i), script, nil)
			if err != nil {
				t.Fatalf("cluster update %s %q: %v", docName(i), script, err)
			}
			ei, err := ctl.Update(ctx, docName(i), script, nil)
			if err != nil {
				t.Fatalf("control update %s %q: %v", docName(i), script, err)
			}
			if ci.NodesInserted != ei.NodesInserted || ci.NodesDeleted != ei.NodesDeleted ||
				ci.Delta.Kind != ei.Delta.Kind {
				t.Fatalf("update info diverges for %s: %+v vs %+v", docName(i), ci, ei)
			}
			// Immediately after the write: the floor must route replica
			// reads correctly (stale replicas fall through to the leader).
			assertVerbsMatch(t, c, ctl, docName(i))
		}
	}

	// Update on a missing document errors on both sides.
	if _, err := c.Update(ctx, "nope", `delete a.b`, nil); err == nil {
		t.Fatal("cluster update of unknown doc succeeded")
	}
}

// TestClusterConcurrentDifferential mixes concurrent readers and
// writers over the cluster (the -race payoff), then re-checks the
// differential once quiescent.
func TestClusterConcurrentDifferential(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 4, 1)
	ctl := engine.OpenMemory()
	defer ctl.Close()

	const base = 8
	for i := 0; i < base; i++ {
		shredBoth(t, c, ctl, i)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Readers hammer the shredded prefix while writers extend the set.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				name := docName((r + k) % base)
				if _, err := c.Run(ctx, name, diffGuard, engine.RunOpts{StreamTo: io.Discard}); err != nil {
					errCh <- fmt.Errorf("read %s: %w", name, err)
					return
				}
				if _, err := c.Docs(ctx, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := base + w*4 + k
				if _, err := c.Shred(ctx, docName(i), strings.NewReader(docXML(i)), nil); err != nil {
					errCh <- fmt.Errorf("shred %s: %w", docName(i), err)
					return
				}
				// Read-your-writes: the shred must be immediately visible.
				if _, err := c.Run(ctx, docName(i), diffGuard, engine.RunOpts{StreamTo: io.Discard}); err != nil {
					errCh <- fmt.Errorf("read-after-write %s: %w", docName(i), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Catch the control up and re-run the full differential.
	for i := base; i < base+8; i++ {
		xml := docXML(i)
		if _, err := ctl.Shred(ctx, docName(i), strings.NewReader(xml), nil); err != nil {
			t.Fatal(err)
		}
	}
	assertDocsMatch(t, c, ctl)
	for i := 0; i < base+8; i++ {
		assertVerbsMatch(t, c, ctl, docName(i))
	}
}

func TestRingDeterministicAndCovering(t *testing.T) {
	a := NewRing(4, 64, 42)
	b := NewRing(4, 64, 42)
	owned := map[int]int{}
	for i := 0; i < 200; i++ {
		name := docName(i)
		sa, sb := a.Lookup(name), b.Lookup(name)
		if sa != sb {
			t.Fatalf("rings with identical config disagree on %s: %d vs %d", name, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("lookup out of range: %d", sa)
		}
		owned[sa]++
	}
	for s := 0; s < 4; s++ {
		if owned[s] == 0 {
			t.Fatalf("shard %d owns no names out of 200 (distribution %v)", s, owned)
		}
	}
	if NewRing(4, 64, 43).Lookup("doc-00") == a.Lookup("doc-00") &&
		NewRing(4, 64, 43).Lookup("doc-01") == a.Lookup("doc-01") &&
		NewRing(4, 64, 43).Lookup("doc-02") == a.Lookup("doc-02") &&
		NewRing(4, 64, 43).Lookup("doc-03") == a.Lookup("doc-03") {
		t.Fatal("different seeds produced identical placement for four names")
	}
	if a.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", a.Shards())
	}
}

// TestShardsPoolCapacityAggregates is the read-scaling claim in pages,
// not time: sixteen documents of ~100 pages each thrash one leader's
// 768-page pool (a second pass re-reads everything) but fit the
// four-shard aggregate (the fullest shard holds five), so the same
// per-leader budget turns the second pass's device reads into pool hits.
// Placement is fixed by the ring seed; the counts are deterministic.
func TestShardsPoolCapacityAggregates(t *testing.T) {
	const docs = 16
	xmls := make([]string, docs)
	for i := range xmls {
		xmls[i] = xmark.Generate(xmark.Config{Factor: 0.005, Seed: int64(42 + i)}).XML(false)
	}
	ctx := context.Background()
	secondPassReads := func(shards int) int64 {
		c, err := New(Config{Shards: shards, Dir: t.TempDir(), CachePages: 768, VNodes: 64, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i, xml := range xmls {
			if _, err := c.Shred(ctx, docName(i), strings.NewReader(xml), nil); err != nil {
				t.Fatal(err)
			}
		}
		readAll := func() {
			for i := range xmls {
				if _, err := c.Run(ctx, docName(i), "CAST MUTATE site", engine.RunOpts{StreamTo: io.Discard}); err != nil {
					t.Fatal(err)
				}
			}
		}
		readAll()
		before := c.Stats().BlocksRead
		readAll()
		return c.Stats().BlocksRead - before
	}
	one, four := secondPassReads(1), secondPassReads(4)
	t.Logf("second-pass pages read: 1 shard %d, 4 shards %d", one, four)
	if one == 0 {
		t.Fatal("one shard re-read nothing: the document set no longer thrashes a 768-page pool")
	}
	if four*2 > one {
		t.Errorf("4 shards re-read %d pages, 1 shard %d: want at most half", four, one)
	}
}
