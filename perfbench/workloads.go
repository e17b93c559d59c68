package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/workload"
)

const joinSQL = "SELECT * FROM R1 JOIN R2 ON R1.id = R2.id"

// workloadDef is one benchmark workload: the generated join, the
// delivery protocol, and the load shape. Every workload is a closed
// loop: clients goroutines share one mux link, each sending its next
// query once the previous one is verified, for --seconds, in windows of
// window queries (see closedLoop).
type workloadDef struct {
	name    string
	proto   mediation.Protocol
	spec    workload.JoinSpec // Seed comes from --seed
	params  mediation.Params
	window  int // completed queries per window, about 1.5 s of load
	clients int
}

// workloads returns the benchmark's workloads by name. They stress
// different layers: das-orders the hybrid opens and the gob codec on
// bulk frames (no modexp, no Paillier), comm-served the modexp kernels
// and two sessions at once on the shared links and worker pools (no DAS,
// no Paillier), pm-small Paillier and the worker pool inside one query
// (no modexp, no DAS).
func workloads() map[string]workloadDef {
	return map[string]workloadDef{
		// TPC-H-shaped orders⋈customer as medbench's large table at scale
		// 0.001: 150 customers (every key active once) and 1 500 orders
		// over 100 of those keys, so every order joins.
		"das-orders": {
			name:  "das-orders",
			proto: mediation.ProtocolDAS,
			spec: workload.JoinSpec{Rows1: 150, Domain1: 150, Rows2: 1500, Domain2: 100,
				Overlap: 1},
			params:  mediation.Params{Partitions: 8, Strategy: das.EquiDepth},
			window:  8,
			clients: 1,
		},
		// Two analysts sharing a mediator, one per core, on the default
		// join. An open loop at a fixed rate was tried and dropped: on a
		// 2-core VM whose idle vCPUs wait to be rescheduled, the
		// interquartile range of its tail across ten runs reached 37% of
		// the median at 5 queries/s and 84% at 10. Two clients complete
		// about 18 queries/s there.
		"comm-served": {
			name:  "comm-served",
			proto: mediation.ProtocolCommutative,
			spec: workload.JoinSpec{Rows1: 200, Domain1: 50, Rows2: 200, Domain2: 50,
				Overlap: 0.5},
			params:  mediation.Params{GroupBits: 1536},
			window:  24,
			clients: 2,
		},
		"pm-small": {
			name:  "pm-small",
			proto: mediation.ProtocolPM,
			spec: workload.JoinSpec{Rows1: 64, Domain1: 16, Rows2: 64, Domain2: 16,
				Overlap: 0.5},
			params:  mediation.Params{PaillierBits: 1024, PayloadMode: mediation.PayloadHybrid},
			window:  6,
			clients: 1,
		},
	}
}

func workloadNames() string {
	var names []string
	for name := range workloads() {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// joinDigest computes the plaintext equi-join R1 ⋈ R2 on id directly
// from the generated relations and returns its canonical digest and
// size: the reference every mediated result is checked against.
func joinDigest(r1, r2 *relation.Relation) ([32]byte, int, error) {
	k1, k2 := r1.Schema().IndexOf("id"), r2.Schema().IndexOf("id")
	if k1 < 0 || k2 < 0 {
		return [32]byte{}, 0, fmt.Errorf("join column id missing")
	}
	byKey := make(map[string][]relation.Tuple)
	for _, t := range r1.Tuples() {
		k := string(relation.EncodeValues(t[k1:k1+1], nil))
		byKey[k] = append(byKey[k], t)
	}
	var rows [][]byte
	for _, t2 := range r2.Tuples() {
		for _, t1 := range byKey[string(relation.EncodeValues(t2[k2:k2+1], nil))] {
			row := relation.EncodeValues(t1, nil)
			rows = append(rows, relation.EncodeValues(t2, row))
		}
	}
	return digestRows(rows), len(rows), nil
}

// resultDigest is the canonical digest of a mediated result.
func resultDigest(rel *relation.Relation) [32]byte {
	rows := make([][]byte, 0, rel.Len())
	for _, t := range rel.Tuples() {
		rows = append(rows, relation.EncodeValues(t, nil))
	}
	return digestRows(rows)
}

// digestRows hashes a bag of encoded rows independently of their order:
// the rows are sorted and length-prefixed before hashing.
func digestRows(rows [][]byte) [32]byte {
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	h := sha256.New()
	var n [8]byte
	for _, r := range rows {
		binary.BigEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		h.Write(r)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
