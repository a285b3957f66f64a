package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"cpsrisk/internal/sysmodel"
)

// Seeded input generators. Every generated model is built from the
// shipped models/types.json types (workstation, scada_server, plc, hmi,
// actuator) and rendered to JSON bytes, so the program under test only
// ever sees a model document — the same input a CLI or service user
// hands it. The same seed always yields byte-identical documents.

// plantSpec describes one generated IT/OT plant: workstations feeding a
// SCADA server that drives PLC/actuator cells, with optional HMIs.
type plantSpec struct {
	name         string
	workstations []wsSpec
	scadaVersion string
	cells        []cellSpec
	hmis         int
	// note is an optional metadata-only attribute on the SCADA server:
	// it changes the model hash but not the compiled engine.
	note string
}

type wsSpec struct {
	exposure, version string
}

type cellSpec struct {
	firmware    string
	criticality string
}

// Attribute pools. fw2.3/fw2.4 and workstation version 10 carry KB
// vulnerabilities; the others do not, so seeds vary the candidate set.
var (
	firmwares     = []string{"fw2.3", "fw2.4", "fw3.0"}
	wsVersions    = []string{"10", "11"}
	exposures     = []string{"public", "internal"}
	scadaVersions = []string{"5.0", "5.1"}
	criticalities = []string{"VH", "H", "M"}
)

func pick(r *rand.Rand, pool []string) string { return pool[r.Intn(len(pool))] }

// randomPlant draws a plant with the given cell count. At least one
// cell's actuator is critical, so generic requirements always exist.
func randomPlant(r *rand.Rand, name string, cells int) plantSpec {
	p := plantSpec{name: name, scadaVersion: pick(r, scadaVersions)}
	p.workstations = []wsSpec{
		{exposure: "public", version: pick(r, wsVersions)},
		{exposure: pick(r, exposures), version: pick(r, wsVersions)},
	}
	for i := 0; i < cells; i++ {
		p.cells = append(p.cells, cellSpec{firmware: pick(r, firmwares), criticality: pick(r, criticalities)})
	}
	p.cells[r.Intn(cells)].criticality = "VH"
	p.hmis = 1 + r.Intn(2)
	return p
}

// model builds the sysmodel.Model for the spec.
func (p plantSpec) model() *sysmodel.Model {
	m := sysmodel.NewModel(p.name)
	scada := &sysmodel.Component{ID: "scada", Type: "scada_server",
		Attrs: map[string]string{"version": p.scadaVersion}}
	if p.note != "" {
		scada.SetAttr("note", p.note)
	}
	for i, ws := range p.workstations {
		id := fmt.Sprintf("ws%d", i+1)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "workstation",
			Attrs: map[string]string{"exposure": ws.exposure, "version": ws.version}})
	}
	m.MustAddComponent(scada)
	for i := range p.workstations {
		m.Connect(fmt.Sprintf("ws%d", i+1), "net", "scada", "fromit", sysmodel.SignalFlow)
	}
	for i, c := range p.cells {
		plc, act := fmt.Sprintf("plc%d", i+1), fmt.Sprintf("act%d", i+1)
		m.MustAddComponent(&sysmodel.Component{ID: plc, Type: "plc",
			Attrs: map[string]string{"version": c.firmware}})
		m.MustAddComponent(&sysmodel.Component{ID: act, Type: "actuator",
			Attrs: map[string]string{"criticality": c.criticality}})
		m.Connect("scada", "toplc", plc, "in", sysmodel.SignalFlow)
		m.Connect(plc, "cmd", act, "cmd", sysmodel.SignalFlow)
	}
	for i := 0; i < p.hmis; i++ {
		id := fmt.Sprintf("hmi%d", i+1)
		m.MustAddComponent(&sysmodel.Component{ID: id, Type: "hmi"})
		m.Connect("scada", "tohmi", id, "in", sysmodel.SignalFlow)
	}
	return m
}

// document renders the spec as a model JSON document.
func (p plantSpec) document() []byte {
	var buf bytes.Buffer
	if err := p.model().WriteJSON(&buf); err != nil {
		panic(err) // in-memory write of a well-formed model cannot fail
	}
	return buf.Bytes()
}

// fleetCells sizes the fleet-sweep plants: with 4 cells and 1-2 HMIs a
// plant has 24-26 candidates and 13k-18k scenarios at cardinality 4,
// which one assessment (sweep plus a 4-5 MB JSON report) handles in
// roughly 0.1-0.25 s on a 2-core machine, so a 30 s run holds the 100
// samples a p90 needs.
const fleetCells = 4

// fleetHMIs fixes the HMI counts of the fleet's plants. The candidate
// count, and with it the scenario space, grows with the HMIs, so the
// seed only permutes this multiset: every seed's fleet sweeps the same
// total space, while firmware, versions, exposure and criticality vary.
// A 1-HMI plant assesses in about 0.6 of a 2-HMI plant's time, so the
// latencies fall into two modes weighted as the multiset is. One 1-HMI
// plant in four puts p50 and p90 inside the 2-HMI mode; with two in four
// p50 sat in the gap between the modes and jumped across it between
// identical runs.
var fleetHMIs = []int{1, 2, 2, 2}

// fleetDocs returns the fleet-sweep plants for a seed.
func fleetDocs(seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	hmis := append([]int(nil), fleetHMIs...)
	r.Shuffle(len(hmis), func(i, j int) { hmis[i], hmis[j] = hmis[j], hmis[i] })
	docs := make([][]byte, len(hmis))
	for i := range docs {
		p := randomPlant(r, fmt.Sprintf("fleet-%d", i+1), fleetCells)
		p.hmis = hmis[i]
		docs[i] = p.document()
	}
	return docs
}

// variant is one submission in a served-edits tenant pool.
type variant struct {
	kind string // "base", "attr" (metadata-only edit) or "behav" (behavioural edit)
	doc  []byte
}

// servedCells sizes the served-edits plants: small enough that a cold
// job at cardinality 2 takes a few milliseconds.
const servedCells = 2

// variantPool returns one tenant's pool: its base plant, two
// metadata-only edits (zero-invalidation deltas) and three behavioural
// edits — an added HMI, a PLC firmware change and both together.
func variantPool(r *rand.Rand, tenant string) []variant {
	base := randomPlant(r, "served-"+tenant, servedCells)
	base.hmis = 1 // fixed, so every seed's pools have the same shapes
	pool := []variant{{"base", base.document()}}
	for i := 0; i < 2; i++ {
		v := base
		v.note = fmt.Sprintf("rev-%d-%d", i+1, r.Intn(1000))
		pool = append(pool, variant{"attr", v.document()})
	}
	withHMI := base
	withHMI.hmis++
	pool = append(pool, variant{"behav", withHMI.document()})
	reflash := base
	reflash.cells = append([]cellSpec(nil), base.cells...)
	c := r.Intn(len(reflash.cells))
	reflash.cells[c].firmware = otherThan(r, firmwares, reflash.cells[c].firmware)
	pool = append(pool, variant{"behav", reflash.document()})
	both := reflash
	both.hmis++
	pool = append(pool, variant{"behav", both.document()})
	return pool
}

func otherThan(r *rand.Rand, pool []string, cur string) string {
	for {
		if v := pick(r, pool); v != cur {
			return v
		}
	}
}

// servedTenants are the two closed-loop clients of served-edits, one
// tenant each.
var servedTenants = []string{"acme", "globex"}

// servedRounds is how often each pool entry appears in a tenant's
// submission order.
const servedRounds = 8

// servedSchedule returns, per tenant, its variant pool and the seeded
// order in which the tenant's client submits pool entries (cycled). The
// order is a shuffle of servedRounds copies of every entry, so every
// seed submits the same mix; consecutive repeats are resubmits, served
// warm.
func servedSchedule(seed int64) (pools [][]variant, orders [][]int) {
	r := rand.New(rand.NewSource(seed))
	for _, t := range servedTenants {
		pool := variantPool(r, t)
		var order []int
		for i := 0; i < servedRounds; i++ {
			for j := range pool {
				order = append(order, j)
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pools = append(pools, pool)
		orders = append(orders, order)
	}
	return pools, orders
}
