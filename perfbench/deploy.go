package main

import (
	"crypto/rsa"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/mediation"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/session"
	"github.com/secmediation/secmediation/internal/telemetry"
	"github.com/secmediation/secmediation/internal/transport"
)

// The admission gate and link timeouts mirror the cmd/mediator and
// cmd/datasource defaults.
const (
	gateActive     = 64
	gateWaiting    = 64
	handlerTimeout = 2 * time.Minute
	retryAfterHint = 500 * time.Millisecond
	queryTimeout   = 30 * time.Second
)

// env is everything one run shares across its deployments: the
// generated relations, the expected result, and the provisioned keys.
// The CA and client RSA keys are made here, outside set-up time, because
// deployments provision them offline (cmd/mmmca).
type env struct {
	def    workloadDef
	r1, r2 *relation.Relation
	want   [32]byte
	rows   int
	caKey  *rsa.PublicKey
	key    *rsa.PrivateKey
	creds  credential.Set
	params mediation.Params
}

func newEnv(def workloadDef, seed int64) (*env, error) {
	spec := def.spec
	spec.Seed = seed
	r1, r2, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	want, rows, err := joinDigest(r1, r2)
	if err != nil {
		return nil, err
	}
	ca, err := credential.NewAuthority("PerfbenchCA")
	if err != nil {
		return nil, err
	}
	client, err := mediation.NewClient()
	if err != nil {
		return nil, err
	}
	cred, err := ca.Issue(&client.PrivateKey.PublicKey,
		[]credential.Property{{Name: "role", Value: "analyst"}}, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	params := def.params
	params.Timeout = queryTimeout
	return &env{def: def, r1: r1, r2: r2, want: want, rows: rows,
		caKey: ca.PublicKey(), key: client.PrivateKey, creds: credential.Set{cred},
		params: params}, nil
}

// deployment is one live loopback deployment.
type deployment struct {
	client *mediation.Client
	mux    *session.Mux
	pool   *session.Pool
	reg    *telemetry.Registry // program telemetry; traced runs only
	tr     *tracer             // nil in untraced runs
	stops  []func() error
	// started is when set-up began.
	started time.Time
	// source counts the mediator's source links and their bytes.
	source linkCounter
}

// linkCounter counts links as they open and close, and their bytes both
// ways, added as each closes.
type linkCounter struct {
	opened, closed, bytes atomic.Int64
}

// awaitSourceLinks waits until the mediator has closed every source link
// it opened: its handler may still be closing them after the client has
// its result.
func (d *deployment) awaitSourceLinks() error {
	deadline := time.Now().Add(10 * time.Second)
	for d.source.closed.Load() < d.source.opened.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("mediator left %d source link(s) open",
				d.source.opened.Load()-d.source.closed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// deploy starts the topology. A non-nil tracer wraps every link end
// and party entry point and turns on the program's own telemetry.
func deploy(e *env, tr *tracer) (*deployment, error) {
	d := &deployment{tr: tr, client: &mediation.Client{PrivateKey: e.key, Credentials: e.creds}}
	if tr != nil {
		d.reg = telemetry.NewRegistry()
		tr.regEpoch = time.Now()
		d.client.Telemetry = d.reg
	}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	policy := func(rel string) map[string]*credential.Policy {
		return map[string]*credential.Policy{rel: {Relation: rel,
			Require: []credential.Requirement{{Property: credential.Property{Name: "role", Value: "analyst"}}}}}
	}
	startSource := func(name, rel string, r *relation.Relation) (string, error) {
		src := &mediation.Source{Name: name, Catalog: algebra.MapCatalog{rel: r},
			Policies: policy(rel), TrustedCAs: []*rsa.PublicKey{e.caKey}, Telemetry: d.reg}
		return d.serve(&session.Server{
			Handler: func(conn transport.Conn) error {
				conn.SetTimeout(handlerTimeout)
				return tr.source(name, src, conn)
			},
			Gate:           session.NewGate(gateActive, gateWaiting, d.reg),
			Telemetry:      d.reg,
			RetryAfterHint: retryAfterHint,
		})
	}
	addr1, err := startSource("S1", "R1", e.r1)
	if err != nil {
		return nil, err
	}
	addr2, err := startSource("S2", "R2", e.r2)
	if err != nil {
		return nil, err
	}
	d.pool = &session.Pool{Dial: transport.Dial, Telemetry: d.reg}
	med := &mediation.Mediator{
		Schemas:   map[string]relation.Schema{"R1": e.r1.Schema(), "R2": e.r2.Schema()},
		Routes:    map[string]mediation.Dialer{"R1": d.route("S1", addr1), "R2": d.route("S2", addr2)},
		Telemetry: d.reg,
	}
	addr, err := d.serve(&session.Server{
		Handler: func(conn transport.Conn) error {
			conn.SetTimeout(handlerTimeout)
			return tr.mediator(med, conn)
		},
		Gate:           session.NewGate(gateActive, gateWaiting, d.reg),
		Telemetry:      d.reg,
		RetryAfterHint: retryAfterHint,
	})
	if err != nil {
		return nil, err
	}
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	d.mux = session.NewMux(conn, session.Config{})
	ok = true
	return d, nil
}

// serve runs srv on a fresh loopback listener and returns its address.
func (d *deployment) serve(srv *session.Server) (string, error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	d.stops = append(d.stops, func() error {
		if err := l.Close(); err != nil {
			return err
		}
		return <-done
	})
	return l.Addr(), nil
}

// route is the mediator's dialer for one source: a session over the
// pooled link, wrapped so its traffic is counted when it closes.
func (d *deployment) route(source, addr string) mediation.Dialer {
	return func() (transport.Conn, error) {
		start := time.Now()
		st, err := d.pool.Open(addr)
		if err != nil {
			return nil, err
		}
		d.source.opened.Add(1)
		return d.tr.mediatorLink(source, st, start, &d.source), nil
	}
}

// close tears the deployment down: the client link and the pool first,
// so every served link ends, then the listeners.
func (d *deployment) close() error {
	var errs []error
	if d.mux != nil {
		errs = append(errs, d.mux.Close())
	}
	if d.pool != nil {
		errs = append(errs, d.pool.Close())
	}
	for i := len(d.stops) - 1; i >= 0; i-- {
		errs = append(errs, d.stops[i]())
	}
	return errors.Join(errs...)
}

// sample is one query's outcome.
type sample struct {
	lat        time.Duration
	err        error
	wrong      bool
	clientRecv int64 // bytes the client received
	clientWire int64 // bytes both ways on the client link
	began, end time.Time
}

// query runs one verified query over a fresh session on the client's mux
// link. Its latency runs from the stream open to the verified result.
func (d *deployment) query(e *env, qid string) sample {
	sc := d.tr.clientScope(qid)
	openStart := time.Now()
	st, err := d.mux.Open()
	if err != nil {
		return sample{err: err, began: openStart, end: time.Now()}
	}
	defer st.Close()
	conn := d.tr.clientLink(sc, st, openStart)
	params := e.params
	params.QueryID, params.Attempt = qid, 1
	var res *relation.Relation
	sc.run("client.query", func() {
		res, err = d.client.Query(conn, joinSQL, e.def.proto, params)
	})
	stats := st.Stats()
	s := sample{clientRecv: stats.BytesRecv(), clientWire: stats.BytesRecv() + stats.BytesSent(), began: openStart}
	if err != nil {
		s.err = err
	} else if got := resultDigest(res); subtle.ConstantTimeCompare(got[:], e.want[:]) != 1 {
		s.wrong = true
		s.err = fmt.Errorf("query %s: result of %d rows differs from the plaintext join of %d rows", qid, res.Len(), e.rows)
	}
	s.end = time.Now()
	s.lat = s.end.Sub(openStart)
	return s
}
