package main

import (
	"bytes"
	"fmt"

	"xpathest"
	"xpathest/internal/core"
	"xpathest/internal/histogram"
	"xpathest/internal/pathenc"
	"xpathest/internal/pidtree"
	"xpathest/internal/stats"
	"xpathest/internal/summaryio"
	"xpathest/internal/xmltree"
)

// reference is the in-process pipeline the server's answers are
// checked against, built layer by layer from the same document bytes:
// xmltree.Parse → pathenc.Build → stats.Collect → histogram.BuildPSet
// and BuildOSet → core.New, at the variance thresholds /summarize
// uses (0, 0).
type reference struct {
	doc    *xmltree.Document
	lab    *pathenc.Labeling
	tables *stats.Tables
	ps     *histogram.PSet
	os     *histogram.OSet
	tree   *pidtree.Tree
	est    *core.Estimator
}

func buildReference(xml []byte) (*reference, error) {
	return buildReferenceTraced(xml, nil, -1, 0)
}

// buildReferenceTraced builds the reference, recording one span per
// layer call under parent when tr is non-nil.
func buildReferenceTraced(xml []byte, tr *tracer, parent int, req int64) (*reference, error) {
	var r reference
	var err error
	sp := tr.begin("xmltree.parse", parent, req)
	r.doc, err = xmltree.Parse(bytes.NewReader(xml))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference: parsing document: %w", err)
	}
	sp = tr.begin("pathenc.build", parent, req)
	r.lab, err = pathenc.Build(r.doc)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference: path encoding: %w", err)
	}
	sp = tr.begin("stats.collect", parent, req)
	r.tables = stats.Collect(r.doc, r.lab)
	tr.end(sp)
	n := r.lab.NumDistinct()
	sp = tr.begin("histogram.build", parent, req)
	r.ps = histogram.BuildPSet(r.tables.Freq, n, 0)
	r.os = histogram.BuildOSet(r.tables.Order, r.ps, n, 0)
	tr.end(sp)
	sp = tr.begin("pidtree.build", parent, req)
	r.tree, err = pidtree.Build(r.lab.Distinct())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference: pid tree: %w", err)
	}
	r.est = core.New(r.lab, core.HistogramSource{P: r.ps, O: r.os})
	return &r, nil
}

// encode serializes the reference summary in the summaryio format.
func (r *reference) encode() ([]byte, error) {
	var b bytes.Buffer
	if err := summaryio.Encode(&b, r.lab.Table, r.lab.Distinct(), r.ps, r.os); err != nil {
		return nil, fmt.Errorf("reference: encoding summary: %w", err)
	}
	return b.Bytes(), nil
}

// storeImage is what the summary store must hold for the document in
// xml: a fresh BuildSummary + Save of it, sealed with the store's
// checksum trailer.
func storeImage(xml []byte) ([]byte, error) {
	doc, err := xpathest.ParseDocument(bytes.NewReader(xml))
	if err != nil {
		return nil, fmt.Errorf("store image: %w", err)
	}
	var b bytes.Buffer
	if err := doc.BuildSummary(xpathest.SummaryOptions{}).Save(&b); err != nil {
		return nil, fmt.Errorf("store image: %w", err)
	}
	return summaryio.Seal(b.Bytes()), nil
}
