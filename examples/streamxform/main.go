// Streamxform: transforming a large document through the shredded store.
// An XMark auction site is generated, shredded to disk (one pass, memory
// bounded by document depth), and then morphed. The guard touches only
// four of the document's ~200 types, so the renderer reads only those key
// ranges — the "read cost linear in the output" property of Section VII.
// Block I/O counters before and after show how little of the store a
// narrow guard touches compared to a full dump.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"xmorph/internal/engine"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "streamxform")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Generate and shred an auction site (~15k nodes at factor 0.01).
	doc := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 1})
	xml := doc.XML(false)
	fmt.Printf("generated XMark factor 0.01: %d nodes, %d types, %.2f MB\n",
		doc.Size(), len(doc.Types()), float64(len(xml))/(1<<20))

	st, err := store.Open(filepath.Join(dir, "xmark.db"), store.WithCachePages(64))
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	info, err := st.Shred("xmark", strings.NewReader(xml), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shredded: %d nodes across %d type sequences\n\n", info.Nodes, info.Types)

	// A narrow guard: gather each person with the auctions they bid in.
	const guard = "CAST MORPH person [ name emailaddress ]"
	before := st.Stats()
	res, err := engine.New(st).Run(context.Background(), "xmark", guard, engine.RunOpts{StreamTo: io.Discard})
	if err != nil {
		log.Fatal(err)
	}
	after := st.Stats()
	fmt.Printf("guard: %s\n", guard)
	fmt.Printf("output: %d elements; compile %v, render %v\n",
		res.Streamed, res.CompileTime, res.RenderTime)
	fmt.Printf("blocks read for the narrow guard: %d\n\n", after.BlocksRead-before.BlocksRead)

	// Compare: a full document dump reads every type sequence.
	before = st.Stats()
	v := st.View()
	defer v.Close()
	d, err := v.Doc("xmark")
	if err != nil {
		log.Fatal(err)
	}
	re, err := d.Reconstruct()
	if err != nil {
		log.Fatal(err)
	}
	if err := re.WriteXML(io.Discard, false); err != nil {
		log.Fatal(err)
	}
	after = st.Stats()
	fmt.Printf("blocks read for the full dump: %d\n", after.BlocksRead-before.BlocksRead)
	fmt.Println("\nthe narrow guard touched only its own type sequences.")
}
