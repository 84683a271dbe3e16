// Command xmorph is the stand-alone XMorph 2.0 query-guard tool (the
// paper's architecture #1): it shreds XML documents into a store, runs
// query guards against them, and prints the transformed XML together with
// the label-to-type and information-loss reports of Section VIII.
//
// Usage:
//
//	xmorph -store data.db shred name doc.xml
//	xmorph -store data.db docs
//	xmorph -store data.db run name 'MORPH author [ name book [ title ] ]'
//	xmorph -store data.db update name 'insert <note>x</note> into dblp.article'
//	xmorph -store data.db check name 'MUTATE name [ author ]'
//	xmorph -store data.db shape name
//	xmorph run-file doc.xml 'MORPH author [ name ]'
//	xmorph explain 'MORPH author [ name publisher [ name ] ]'
//	xmorph -store data.db run name 'MORPH title' --trace
//
// Every command drives the unified engine facade (internal/engine) — the
// same pipeline the xmorphd daemon serves.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"xmorph/internal/engine"
	"xmorph/internal/obs"
	"xmorph/internal/plan"
)

func main() {
	storePath := flag.String("store", "xmorph.db", "store file for shredded documents")
	cache := flag.Int("cache", 256, "buffer pool size in pages")
	indent := flag.Bool("indent", true, "pretty-print output XML")
	quiet := flag.Bool("quiet", false, "suppress the reports, print only XML")
	verify := flag.Bool("verify", false, "run-file: empirically compare closest graphs and quantify loss")
	stream := flag.Bool("stream", false, "run: stream output without materializing the result tree")
	trace := flag.Bool("trace", false, "print the pipeline span tree to stderr")
	explain := flag.Bool("explain", false, "print the pipeline span tree as JSON to stderr")
	slowMS := flag.Int("slow-query-ms", -1, "print the span tree only when the command takes at least this many ms (negative: always)")
	metrics := flag.Bool("metrics", false, "dump the metrics registry snapshot to stderr")
	metricsFormat := flag.String("metrics-format", "text", "metrics dump format: text or json")
	flag.Usage = usage
	flag.Parse()

	o := options{store: *storePath, cache: *cache,
		indent: *indent, quiet: *quiet,
		verify: *verify, stream: *stream,
		trace: *trace, explain: *explain, slowMS: *slowMS,
		metrics: *metrics, metricsFormat: *metricsFormat}
	args, err := extractTrailingFlags(flag.Args(), &o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmorph:", err)
		os.Exit(2)
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := dispatch(o, args); err != nil {
		fmt.Fprintln(os.Stderr, "xmorph:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `xmorph - shape-polymorphic XML transformation (XMorph 2.0)

commands:
  shred <name> <file.xml>   shred a document into the store
  docs                      list shredded documents
  shape <name>              print a document's adorned shape
  run <name> <guard>        run a query guard against a stored document
  drop <name>               remove a shredded document
  update <name> <script>    apply an edit script in place (@file reads it
                            from a file): insert <xml> into|before|after
                            <path> ; delete <path> ; replace <path> with <xml>
  check <name> <guard>      type-check a guard without rendering
  run-file <file.xml> <guard>   one-shot: parse, transform, print
  explain <guard>           print the guard's algebra tree
  infer <query>             infer the MORPH guard an XQuery query needs
  query <name> <guard> <xquery>   guarded query over a stored document

flags:
`)
	flag.PrintDefaults()
}

// usageError marks bad invocations (wrong arity, unknown command); main
// exits 2 for these, matching the no-arguments usage path, and 1 for
// runtime failures.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return usageError{msg: fmt.Sprintf(format, args...)}
}

// extractTrailingFlags lets the observability flags appear after the
// positional arguments (`xmorph run doc guard --trace`), where the flag
// package stops parsing. Only flags that change no command semantics are
// accepted there; anything else must precede the command.
func extractTrailingFlags(args []string, o *options) ([]string, error) {
	out := args[:0:0]
	for _, a := range args {
		if len(out) > 0 && strings.HasPrefix(a, "-") {
			switch name := strings.TrimLeft(a, "-"); {
			case name == "trace":
				o.trace = true
			case name == "explain":
				o.explain = true
			case strings.HasPrefix(name, "slow-query-ms="):
				n, err := strconv.Atoi(strings.TrimPrefix(name, "slow-query-ms="))
				if err != nil {
					return nil, usagef("bad %s: %v", a, err)
				}
				o.slowMS = n
			case name == "metrics":
				o.metrics = true
			case strings.HasPrefix(name, "metrics-format="):
				o.metricsFormat = strings.TrimPrefix(name, "metrics-format=")
			default:
				return nil, usagef("flag %s must precede the command (only --trace, --explain, --slow-query-ms, --metrics, --metrics-format may trail)", a)
			}
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// options carries the CLI flags into dispatch (kept testable).
type options struct {
	store  string
	cache  int
	indent bool
	quiet  bool
	verify bool
	stream bool

	trace         bool
	explain       bool
	slowMS        int
	metrics       bool
	metricsFormat string
	// traceW/metricsW override the stderr sinks in tests; zeroDur
	// redacts span durations for golden comparisons.
	traceW   io.Writer
	metricsW io.Writer
	zeroDur  bool
}

func dispatch(o options, args []string) error {
	ctx := context.Background()
	indent, quiet := o.indent, o.quiet
	var opened *engine.Engine
	open := func() (*engine.Engine, error) {
		eng, err := engine.Open(o.store, engine.WithCachePages(o.cache))
		if err == nil {
			opened = eng
		}
		return eng, err
	}

	var tr *obs.Trace
	if o.trace || o.explain || o.slowMS > 0 {
		tr = obs.New(args[0])
	}
	root := tr.Root()
	defer func() {
		if tr != nil {
			tr.Finish()
			// With --slow-query-ms the tree only prints when the command
			// was at least that slow — the CLI twin of xmorphd's
			// slow-query retention.
			if tr.Duration() >= time.Duration(o.slowMS)*time.Millisecond {
				w := o.traceW
				if w == nil {
					w = os.Stderr
				}
				switch {
				case o.explain:
					if raw, err := tr.JSON(); err == nil {
						w.Write(raw)
						io.WriteString(w, "\n")
					}
				case o.zeroDur:
					io.WriteString(w, tr.TextZeroDurations())
				default:
					io.WriteString(w, tr.Text())
				}
			}
		}
		if o.metrics {
			dumpMetrics(o, opened)
		}
	}()

	switch args[0] {
	case "shred":
		if len(args) != 3 {
			return usagef("usage: shred <name> <file.xml>")
		}
		f, err := os.Open(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		info, err := eng.Shred(ctx, args[1], f, root)
		if err != nil {
			return err
		}
		fmt.Printf("shredded %q: %d nodes, %d types\n", info.Name, info.Nodes, info.Types)
		return nil

	case "docs":
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		names, err := eng.Docs(ctx, root)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil

	case "shape":
		if len(args) != 2 {
			return usagef("usage: shape <name>")
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		sh, err := eng.Shape(ctx, args[1], root)
		if err != nil {
			return err
		}
		fmt.Print(sh.String())
		return nil

	case "run":
		if len(args) != 3 {
			return usagef("usage: run <name> <guard>")
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		if o.stream {
			checked, err := eng.Check(ctx, args[1], args[2], root)
			if err != nil {
				return err
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "-- information-loss report --\n%s\n", checked.Loss)
			}
			res, err := eng.Run(ctx, args[1], args[2], engine.RunOpts{Span: root, StreamTo: os.Stdout})
			if err != nil {
				return err
			}
			root.Set("pages-read", res.PagesRead)
			if !quiet {
				exec := "join-backed"
				if res.StreamExec {
					exec = "one-pass"
				}
				fmt.Fprintf(os.Stderr, "\n-- plan: %s; streamed %d nodes (%s) --\n", res.Plan, res.Streamed, exec)
			}
			return nil
		}
		res, err := eng.Run(ctx, args[1], args[2], engine.RunOpts{Span: root})
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "-- label-to-type report --\n%s", res.LabelReport())
			fmt.Fprintf(os.Stderr, "-- information-loss report --\n%s\n", res.Loss)
			fmt.Fprintf(os.Stderr, "-- compile %v, render %v --\n", res.CompileTime, res.RenderTime)
		}
		return res.Output.WriteXML(os.Stdout, indent)

	case "drop":
		if len(args) != 2 {
			return usagef("usage: drop <name>")
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		if err := eng.Drop(ctx, args[1], root); err != nil {
			return err
		}
		fmt.Printf("dropped %q\n", args[1])
		return nil

	case "update":
		if len(args) != 3 {
			return usagef("usage: update <name> <script | @file>")
		}
		script := args[2]
		if strings.HasPrefix(script, "@") {
			raw, err := os.ReadFile(script[1:])
			if err != nil {
				return err
			}
			script = string(raw)
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		info, err := eng.Update(ctx, args[1], script, root)
		if err != nil {
			return err
		}
		fmt.Printf("updated %q: %d ops, +%d/-%d nodes, %d pages written, shape %s\n",
			info.Name, info.Ops, info.NodesInserted, info.NodesDeleted,
			info.PagesWritten, info.Delta)
		return nil

	case "check":
		if len(args) != 3 {
			return usagef("usage: check <name> <guard>")
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		checked, err := eng.Check(ctx, args[1], args[2], root)
		if err != nil {
			return err
		}
		fmt.Printf("-- label-to-type report --\n%s", checked.LabelReport())
		fmt.Printf("-- information-loss report --\n%s\n", checked.Loss)
		fmt.Printf("-- streaming plan --\n%s\n", plan.Classify(checked.Plan.ComposedTarget()))
		fmt.Printf("-- target shape --\n%s", checked.Plan.ComposedTarget())
		return nil

	case "run-file":
		if len(args) != 3 {
			return usagef("usage: run-file <file.xml> <guard>")
		}
		f, err := os.Open(args[1])
		if err != nil {
			return err
		}
		res, err := engine.TransformReader(args[2], f, root)
		f.Close()
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "-- information-loss report --\n%s\n", res.Loss)
		}
		if o.verify {
			r := engine.Verify(res.Source, res.Output)
			fmt.Fprintf(os.Stderr, "-- empirical verification --\n")
			fmt.Fprintf(os.Stderr, "source: %d vertices, %d closest edges\n", r.SrcVertices, r.SrcEdges)
			fmt.Fprintf(os.Stderr, "lost: %d vertices, %d edges (%.1f%% of the source)\n", r.LostVertices, r.LostEdges, r.LossPct())
			fmt.Fprintf(os.Stderr, "created: %d vertices, %d edges (%.1f%% of the output is new)\n", r.CreatedVertices, r.CreatedEdges, r.CreatedPct())
		}
		return res.Output.WriteXML(os.Stdout, indent)

	case "query":
		if len(args) != 4 {
			return usagef("usage: query <name> <guard> <xquery>")
		}
		eng, err := open()
		if err != nil {
			return err
		}
		defer eng.Close()
		res, err := eng.Query(ctx, args[1], args[2], args[3], engine.QueryOpts{Span: root})
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "-- projection: %d of %d target types, %d rendered nodes --\n",
				res.KeptTypes, res.TotalTypes, res.RenderedNodes)
		}
		fmt.Println(res.Answer)
		return nil

	case "infer":
		if len(args) != 2 {
			return usagef("usage: infer <query>")
		}
		g, err := engine.InferGuard(args[1])
		if err != nil {
			return err
		}
		fmt.Println(g)
		return nil

	case "explain":
		if len(args) != 2 {
			return usagef("usage: explain <guard>")
		}
		tree, err := engine.Explain(args[1])
		if err != nil {
			return err
		}
		fmt.Print(tree)
		return nil
	}
	return usagef("unknown command %q (run with no arguments for usage)", args[0])
}

// dumpMetrics mirrors the store's block-I/O, buffer-pool, and operation
// counters into the default registry as gauges, then writes the full
// snapshot (pipeline histograms included) to stderr.
func dumpMetrics(o options, eng *engine.Engine) {
	w := o.metricsW
	if w == nil {
		w = os.Stderr
	}
	if eng != nil {
		engine.MirrorStoreStats(obs.Default, eng.Stats())
	}
	snap := obs.Default.Snapshot()
	if o.metricsFormat == "json" {
		raw, err := snap.JSON()
		if err != nil {
			fmt.Fprintln(w, "xmorph: metrics:", err)
			return
		}
		w.Write(raw)
		io.WriteString(w, "\n")
		return
	}
	io.WriteString(w, snap.Text())
}
