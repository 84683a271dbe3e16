package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xmorph/internal/engine"
	"xmorph/internal/kvstore"
	"xmorph/internal/store"
)

// Chaos sweep: one shard's leader is crashed (FaultFS, torn write +
// write-back cache loss) at every k-th mutation of a fixed workload,
// then restarted. After WAL replay and an idempotent retry of the
// failed operations the cluster must serve exactly the control's
// document set, byte-identically — at every crash index.

// chaosOp is one step of the scripted workload.
type chaosOp struct {
	kind string // "shred" or "drop"
	doc  int
	ver  int // content version for shreds
}

func chaosXML(doc, ver int) string {
	var b strings.Builder
	b.WriteString("<data>")
	for j := 0; j < 2+doc%3; j++ {
		fmt.Fprintf(&b, "<book><title>C%d.%d-%d</title><author><name>N%d</name></author></book>", doc, ver, j, j)
	}
	b.WriteString("</data>")
	return b.String()
}

// chaosWorkload: shred ten documents, drop two, re-shred one with new
// content — exercising create, delete, and replace on every shard.
func chaosWorkload() []chaosOp {
	var ops []chaosOp
	for i := 0; i < 10; i++ {
		ops = append(ops, chaosOp{kind: "shred", doc: i, ver: 1})
	}
	ops = append(ops,
		chaosOp{kind: "drop", doc: 3},
		chaosOp{kind: "drop", doc: 6},
		chaosOp{kind: "shred", doc: 3, ver: 2},
	)
	return ops
}

// applyOp runs one op against a Backend. Retried ops tolerate the
// already-applied sentinels: a shred that committed before the crash
// answers ErrExists on retry, a drop ErrNotFound — both mean the
// op's effect is durable.
func applyOp(b engine.Backend, op chaosOp, retry bool) error {
	ctx := context.Background()
	var err error
	switch op.kind {
	case "shred":
		_, err = b.Shred(ctx, docName(op.doc), strings.NewReader(chaosXML(op.doc, op.ver)), nil)
		if retry && errors.Is(err, engine.ErrExists) {
			return nil
		}
	case "drop":
		err = b.Drop(ctx, docName(op.doc), nil)
		if retry && errors.Is(err, engine.ErrNotFound) {
			return nil
		}
	}
	return err
}

// chaosCluster builds a 3-shard cluster whose leaders live on the given
// per-shard FaultFS instances (durable, tiny cache to force real I/O).
func chaosCluster(t *testing.T, fss []*kvstore.FaultFS) *Cluster {
	t.Helper()
	c, err := New(Config{
		Shards: len(fss),
		VNodes: 32,
		OpenLeader: func(i int) (*store.Store, error) {
			// The reboot happens here, between the crashed leader's
			// teardown and its reopen: RestartShard closes the old leader
			// while the filesystem is still crashed (its final flush fails,
			// like a dead process's page cache), then this hook clears the
			// fault — the disk as the rebooted process sees it — and the
			// reopen replays whatever WAL survived.
			fss[i].ClearFaults()
			return store.Open("shard.db", store.WithKVOptions(&kvstore.Options{
				FS: fss[i], CachePages: 16,
			}))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterChaosSweep(t *testing.T) {
	ops := chaosWorkload()

	// Control: the workload on a single engine, no faults.
	ctl := engine.OpenMemory()
	defer ctl.Close()
	for _, op := range ops {
		if err := applyOp(ctl, op, false); err != nil {
			t.Fatalf("control %v: %v", op, err)
		}
	}
	wantDocs, err := ctl.Docs(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantXML := map[string]string{}
	for _, name := range wantDocs {
		if wantXML[name], err = runXML(ctl, name, diffGuard); err != nil {
			t.Fatal(err)
		}
	}

	// Rehearsal: the same workload on a fault-free cluster fixes the
	// mutation count of the target shard (FaultFS numbering depends only
	// on the workload, so the sweep range is exact).
	const shards = 3
	rehearsalFS := make([]*kvstore.FaultFS, shards)
	for i := range rehearsalFS {
		rehearsalFS[i] = kvstore.NewFaultFS()
	}
	rc := chaosCluster(t, rehearsalFS)
	target := rc.ring.Lookup(docName(3)) // owns a drop + re-shred, the richest history
	// Opening the cluster wrote each new store's empty tree.
	opened := rehearsalFS[target].Writes()
	for _, op := range ops {
		if err := applyOp(rc, op, false); err != nil {
			t.Fatalf("rehearsal %v: %v", op, err)
		}
	}
	writes := rehearsalFS[target].Writes() - opened
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if writes < 10 {
		t.Fatalf("target shard %d saw only %d mutations; workload too small for a sweep", target, writes)
	}

	// Sweep: crash the target shard's leader at every k-th mutation of
	// the workload.
	k := writes / 12
	if k < 1 {
		k = 1
	}
	var recoveries int64
	for n := int64(0); n < writes; n += k {
		n := n
		t.Run(fmt.Sprintf("crash-at-%d", n), func(t *testing.T) {
			fss := make([]*kvstore.FaultFS, shards)
			for i := range fss {
				fss[i] = kvstore.NewFaultFS()
			}
			c := chaosCluster(t, fss)
			defer c.Close()
			// Torn write + write-back loss: the most adversarial crash the
			// WAL protocol claims to survive. The tear length varies with
			// the index to sweep partial-page states too.
			fss[target].CrashAfter(fss[target].Writes()+n, int(n%kvstore.PageSize), true)

			var failed []chaosOp
			for _, op := range ops {
				if err := applyOp(c, op, false); err != nil {
					failed = append(failed, op)
				}
			}
			if !fss[target].Crashed() {
				t.Fatalf("crash at %d never fired (workload shrank?)", n)
			}
			// Restart the shard (the OpenLeader hook reboots the
			// filesystem and WAL replay runs inside the reopen), then
			// retry what failed.
			if err := c.RestartShard(target); err != nil {
				t.Fatalf("restart: %v", err)
			}
			for _, op := range failed {
				if err := applyOp(c, op, true); err != nil {
					t.Fatalf("retry %v after restart: %v", op, err)
				}
			}

			gotDocs, err := c.Docs(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(gotDocs, ",") != strings.Join(wantDocs, ",") {
				t.Fatalf("doc set after recovery:\n%v\nwant\n%v", gotDocs, wantDocs)
			}
			for _, name := range wantDocs {
				got, err := runXML(c, name, diffGuard)
				if err != nil {
					t.Fatalf("run %s after recovery: %v", name, err)
				}
				if got != wantXML[name] {
					t.Fatalf("output of %s after recovery diverges:\n%s\nwant\n%s",
						name, got, wantXML[name])
				}
			}
			recoveries += c.Recovered()
		})
	}
	// Not every crash index leaves a complete WAL (a crash before the
	// commit record simply loses nothing), but across the sweep at least
	// one index must land mid-protocol and exercise replay.
	if recoveries == 0 {
		t.Fatal("no crash index triggered a WAL replay — the sweep never hit the commit protocol")
	}
}
