package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"xmorph/internal/core"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/logical"
	"xmorph/internal/xmltree"
)

// checkKind says how a reply is verified.
type checkKind int

const (
	checkBody    checkKind = iota // SHA-256 of the whole body equals want
	checkAnswer                   // SHA-256 of the JSON "answer" field equals want
	checkTail                     // body ends with </site> (identity in mixed; verified after the window)
	checkCreated                  // 201 and the JSON "nodes" field equals nodes
	checkOK                       // 2xx
)

// op is one HTTP request of a schedule with the reply it must get.
type op struct {
	kind   phaseKind // query, shred or patch; a DELETE rides as a patch-phase op of class "drop"
	class  string
	method string
	path   string
	ctype  string
	body   []byte
	check  checkKind
	want   [sha256.Size]byte
	nodes  int    // checkCreated
	guard  string // query ops: the guard text, for the traced pass
	query  string // logical ops: the XQuery
	script string // patch ops: the edit script
	doc    string // shred and drop ops: the document's name
	xml    []byte // shred ops: the document
}

// document is a generated XMark document in both forms the set-up needs.
type document struct {
	tree *xmltree.Document
	xml  []byte
}

func generate(factor float64, seed int64) document {
	tree := xmark.Generate(xmark.Config{Factor: factor, Seed: seed})
	var buf bytes.Buffer
	// A bytes.Buffer write cannot fail.
	_ = tree.WriteXML(&buf, false)
	return document{tree: tree, xml: buf.Bytes()}
}

// oracle holds the expected reply of every query class, computed without
// the store: core.Transform (and logical.Evaluate) over the parsed
// in-memory document.
type oracle struct {
	sum   map[string][sha256.Size]byte
	fresh [][]byte // reference output per fresh template, with the placeholder name
}

func transformBytes(guardSrc string, tree *xmltree.Document) ([]byte, error) {
	res, err := core.Transform(guardSrc, tree, nil)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", guardSrc, err)
	}
	var buf bytes.Buffer
	_ = res.Output.WriteXML(&buf, false)
	return buf.Bytes(), nil
}

func buildOracle(tree *xmltree.Document) (*oracle, error) {
	o := &oracle{sum: map[string][sha256.Size]byte{}}
	for class, g := range mixGuards {
		out, err := transformBytes(g, tree)
		if err != nil {
			return nil, err
		}
		o.sum[class] = sha256.Sum256(out)
	}
	res, err := logical.Evaluate(logicalQuery, mixGuards[clPeople], "main", tree)
	if err != nil {
		return nil, fmt.Errorf("reference logical query: %w", err)
	}
	o.sum[clLogical] = sha256.Sum256([]byte(res.Answer))
	for _, tmpl := range freshTemplates {
		out, err := transformBytes(fmt.Sprintf(tmpl, freshPlaceholder), tree)
		if err != nil {
			return nil, err
		}
		o.fresh = append(o.fresh, out)
	}
	return o, nil
}

// queryBody is the POST /v1/query request.
type queryBody struct {
	Doc    string `json:"doc"`
	Guard  string `json:"guard"`
	Query  string `json:"query,omitempty"`
	Format string `json:"format,omitempty"`
	Stream bool   `json:"stream,omitempty"`
}

func queryOp(class, guardSrc, query string, check checkKind, want [sha256.Size]byte) op {
	qb := queryBody{Doc: "main", Guard: guardSrc, Query: query}
	if query == "" {
		qb.Format, qb.Stream = "xml", true
	}
	body, _ := json.Marshal(qb) // a struct of strings and a bool cannot fail to marshal
	return op{
		kind: phaseQuery, class: class, method: "POST", path: "/v1/query",
		ctype: "application/json", body: body, check: check, want: want,
		guard: guardSrc, query: query,
	}
}

// inputs is everything a run sends, made from the seed alone.
type inputs struct {
	main document
	pool []document
	// queries holds the ready-made op of every class but fresh.
	queries map[string]op
	// fresh holds the prepared never-seen guards, handed out in order.
	fresh []op
	// cats is the main document's category count; the patch scripts keep it.
	cats int
}

// buildInputs makes a run's inputs from the seed; attempt picks the main
// document among the seed's candidates (setUp explains).
func buildInputs(spec *workloadSpec, sc scale, seed int64, attempt int) (*inputs, error) {
	in := &inputs{main: generate(sc.factor(spec.mainFactor), seed+int64(attempt)*1_000_003)}
	for i := 0; i < spec.postDocs; i++ {
		in.pool = append(in.pool, generate(sc.factor(spec.postFactor), seed*1000+int64(i)+1))
	}
	ref, err := buildOracle(in.main.tree)
	if err != nil {
		return nil, err
	}
	in.cats = len(in.main.tree.NodesOfType("site.categories.category"))
	if in.cats == 0 {
		return nil, fmt.Errorf("generated document has no categories")
	}

	in.queries = map[string]op{}
	for class, g := range mixGuards {
		check := checkBody
		if class == clIdentity && spec.main == phaseMixed {
			// The writes edit the document between the reads, so the
			// identity reply has no single reference inside the window.
			check = checkTail
		}
		in.queries[class] = queryOp(class, g, "", check, ref.sum[class])
	}
	in.queries[clLogical] = queryOp(clLogical, mixGuards[clPeople], logicalQuery, checkAnswer, ref.sum[clLogical])

	for i := 0; i < freshVariants; i++ {
		t := i % len(freshTemplates)
		name := fmt.Sprintf("v%dx%d", seed, i)
		want := bytes.ReplaceAll(ref.fresh[t], []byte(freshPlaceholder), []byte(name))
		in.fresh = append(in.fresh, queryOp(clFresh, fmt.Sprintf(freshTemplates[t], name), "", checkBody, sha256.Sum256(want)))
	}
	return in, nil
}

// deck deals the query mix to one client: seeded shuffles of mixDeck, and
// the client's own stride of the prepared fresh guards, so the requests a
// client sends depend on the seed alone.
type deck struct {
	in            *inputs
	rng           *rand.Rand
	cards         []string
	next          int
	fresh, stride int
}

func newDeck(in *inputs, seed int64, client, clients int) *deck {
	return &deck{in: in, rng: rand.New(rand.NewSource(seed*31 + int64(client) + 7)), fresh: client, stride: clients}
}

// reshuffle drops what is left of the current deck, so the next 20 draws
// are one whole deck and hold the mix's exact proportions.
func (d *deck) reshuffle() { d.next = len(d.cards) }

func (d *deck) draw() op {
	if d.next == len(d.cards) {
		d.cards = append(d.cards[:0], mixDeck...)
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	class := d.cards[d.next]
	d.next++
	if class == clFresh {
		o := d.in.fresh[d.fresh%len(d.in.fresh)]
		d.fresh += d.stride
		return o
	}
	return d.in.queries[class]
}

// patchCycle is the writer's fixed cycle of 8 edit scripts against the
// main document. The update language edits every node of a rooted type
// path, so "one bidder under one auction" cannot be said; the scripts
// instead rewrite a singleton subtree (catgraph), a small type set (every
// category name), and insert then delete a never-seen element type under
// open_auctions, so the shape widens and narrows once per cycle and the
// guard cache must recompile twice. Document size is steady over a cycle
// and no script touches a type the mix guards read. Five of the eight are
// the same kind, so the median patch falls inside that kind's cost and
// not on the edge between two kinds.
var patchCycle = []string{"catgraph", "catnames", "catgraph", "promo-in", "catgraph", "catgraph", "promo-out", "catgraph"}

// patchScript writes one script of the cycle. tag names the promo element,
// so replays of the cycle that alternate script by script (the traced
// pass's routes) each insert and delete their own.
func patchScript(kind, tag string, cats int, rng *rand.Rand) string {
	switch kind {
	case "catgraph":
		var b strings.Builder
		b.WriteString("replace site.catgraph with <catgraph>")
		for i := 0; i < cats; i++ {
			fmt.Fprintf(&b, `<edge from="category%d" to="category%d"/>`, rng.Intn(cats), rng.Intn(cats))
		}
		b.WriteString("</catgraph>")
		return b.String()
	case "catnames":
		return fmt.Sprintf("replace site.categories.category.name with <name>lot %d</name>", rng.Intn(1000))
	case "promo-in":
		return fmt.Sprintf("insert <%s><banner>sale %d</banner><until>12/31/2001</until></%s> into site.open_auctions", tag, rng.Intn(1000), tag)
	default:
		return "delete site.open_auctions." + tag
	}
}

func patchOp(kind, tag string, cats int, rng *rand.Rand) op {
	script := patchScript(kind, tag, cats, rng)
	return op{
		kind: phasePatch, class: "patch", method: "PATCH", path: "/v1/docs/main",
		ctype: "text/plain", body: []byte(script), check: checkOK, script: script,
	}
}

func shredOp(name string, d document) op {
	return op{
		kind: phaseShred, class: "shred", method: "POST", path: "/v1/docs/" + name,
		ctype: "application/xml", body: d.xml, check: checkCreated, nodes: d.tree.Size(), doc: name, xml: d.xml,
	}
}

func dropOp(name string) op {
	return op{kind: phasePatch, class: "drop", method: "DELETE", path: "/v1/docs/" + name, check: checkOK, doc: name}
}
