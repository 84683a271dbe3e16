package cluster

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/core"
	"xmorph/internal/engine"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/xmltree"
)

// transformCase is one document and the guards run over it.
type transformCase struct {
	name, xml string
	guards    []string
}

// mixGuards are the five guards of the serving benchmark's query mix,
// which it runs over an XMark document.
var mixGuards = []string{
	"CAST MORPH open_auction [ bidder [ increase ] ]",
	"CAST MORPH person [ name emailaddress ] | TRANSLATE person -> individual",
	"CAST MORPH bidder [ open_auction [ itemref ] ]",
	"CAST MORPH item [ name incategory ]",
	"CAST MUTATE site",
}

// transformCases loads the streaming executor's golden corpus (both
// streamable and store-backed guards, each over its own input) and adds
// the benchmark mix over a small XMark document.
func transformCases(t *testing.T) []transformCase {
	t.Helper()
	paths, err := filepath.Glob("../stream/testdata/*.txt")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	var cases []transformCase
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, _ := strings.Cut(string(raw), "-- guard --\n")
		g, rest, _ := strings.Cut(rest, "-- input --\n")
		in, _, _ := strings.Cut(rest, "-- output --\n")
		cases = append(cases, transformCase{
			name:   strings.TrimSuffix(filepath.Base(path), ".txt"),
			xml:    in,
			guards: []string{strings.TrimSpace(g)},
		})
	}
	site := xmark.Generate(xmark.Config{Factor: 0.002, Seed: 1}).XML(false)
	return append(cases, transformCase{name: "xmark", xml: site, guards: mixGuards})
}

// TestRunMatchesTransform checks every stored Run against an independent
// reference: core.Transform over the parsed document shares neither the
// store, the guard cache, nor the streamed emit path with Run, so equal
// bytes, compact and indented, on one engine and through a 2-shard
// cluster, mean storing, routing and streaming changed nothing.
func TestRunMatchesTransform(t *testing.T) {
	ctx := context.Background()
	cases := transformCases(t)
	single := engine.OpenMemory()
	defer single.Close()
	backends := map[string]engine.Backend{"engine": single, "cluster": newTestCluster(t, 2)}
	for label, b := range backends {
		for _, c := range cases {
			if _, err := b.Shred(ctx, c.name, strings.NewReader(c.xml), nil); err != nil {
				t.Fatalf("%s: shred %s: %v", label, c.name, err)
			}
		}
	}
	for _, c := range cases {
		doc := xmltree.MustParse(c.xml)
		for _, g := range c.guards {
			want, err := core.Transform(g, doc, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, g, err)
			}
			for label, b := range backends {
				for _, indent := range []bool{false, true} {
					var got strings.Builder
					if _, err := b.Run(ctx, c.name, g, engine.RunOpts{StreamTo: &got, Indent: indent}); err != nil {
						t.Fatalf("%s: %s: %s: %v", label, c.name, g, err)
					}
					if exp := want.Output.XML(indent); got.String() != exp {
						t.Errorf("%s: %s: %s (indent %v): Run bytes differ from the in-memory transform:\n%q\nvs\n%q",
							label, c.name, g, indent, got.String(), exp)
					}
				}
			}
		}
	}
}
