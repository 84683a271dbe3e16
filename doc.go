// Package xmorph is a Go implementation of XMorph 2.0, the
// shape-polymorphic XML data transformation language of "Querying XML
// Data: As You Shape It" (Dyreson & Bhowmick, ICDE 2012).
//
// A query guard declares the shape a query needs; XMorph checks — from
// the adorned shapes alone, before any data moves — whether transforming
// the data into that shape can lose or manufacture information, and then
// renders the data by preserving closest relationships.
//
// Over an in-memory document the entry point is internal/core:
//
//	res, err := core.TransformString(
//	    "MORPH author [ name book [ title ] ]", xmlText)
//	fmt.Println(res.Loss)             // strongly-typed / narrowing / ...
//	fmt.Println(res.Output.XML(true)) // the reshaped document
//
// Over shredded documents it is internal/engine, the one pipeline that
// runs a guard against a store and the facade the CLI and daemon drive.
//
// See README.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package xmorph
