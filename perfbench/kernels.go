package main

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"fmt"
	"math/big"
	"sort"
	"time"

	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/groups"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/crypto/oracle"
	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/transport"
)

// kernelReps is how often each kernel runs; the median call is reported.
const kernelReps = 15

// timeKernel returns the median duration of kernelReps calls of fn in µs.
func timeKernel(fn func() error) (float64, error) {
	durs := make([]float64, kernelReps)
	for i := range durs {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	sort.Float64s(durs)
	return durs[kernelReps/2], nil
}

// kernels times the crypto kernels through their public functions at
// the workload's sizes: its commutative group and Paillier key size (the
// protocol defaults where the workload sets none), its mean encoded tuple
// as the etuple plaintext, and its join-key magnitude as the Horner
// multiplier.
func kernels(e *env, d *deployment) (map[string]float64, error) {
	out := make(map[string]float64)
	p := e.params
	bits := p.GroupBits
	if bits == 0 {
		bits = 2048
	}
	g, err := commutativeGroup(bits)
	if err != nil {
		return nil, err
	}
	o := oracle.New(g, "perfbench")
	var key, key2 *commutative.Key
	if out["commutative.keygen_us"], err = timeKernel(func() error {
		key, err = commutative.GenerateKey(g, rand.Reader)
		return err
	}); err != nil {
		return nil, err
	}
	if key2, err = commutative.GenerateKey(g, rand.Reader); err != nil {
		return nil, err
	}
	joinKey := relation.Int(joinKeyMagnitude(e))
	h := o.HashValue(joinKey)
	var c *big.Int
	if out["oracle.hash_us"], err = timeKernel(func() error {
		h = o.HashValue(joinKey)
		return nil
	}); err != nil {
		return nil, err
	}
	if out["commutative.encrypt_us"], err = timeKernel(func() error {
		c, err = key.Encrypt(h)
		return err
	}); err != nil {
		return nil, err
	}
	if out["commutative.reencrypt_us"], err = timeKernel(func() error {
		_, err := key2.ReEncrypt(c)
		return err
	}); err != nil {
		return nil, err
	}

	pbits := p.PaillierBits
	if pbits == 0 {
		pbits = 1024
	}
	sk, err := d.client.HomomorphicKey(pbits)
	if err != nil {
		return nil, err
	}
	m := big.NewInt(joinKeyMagnitude(e))
	var pc *paillier.Ciphertext
	if out["paillier.encrypt_us"], err = timeKernel(func() error {
		pc, err = sk.PublicKey.Encrypt(rand.Reader, m)
		return err
	}); err != nil {
		return nil, err
	}
	if out["paillier.mulconst_us"], err = timeKernel(func() error {
		sk.PublicKey.MulConst(pc, m)
		return nil
	}); err != nil {
		return nil, err
	}
	if out["paillier.decrypt_us"], err = timeKernel(func() error {
		_, err := sk.Decrypt(pc)
		return err
	}); err != nil {
		return nil, err
	}

	sess, err := hybrid.NewSession(&e.key.PublicKey)
	if err != nil {
		return nil, err
	}
	recv, err := hybrid.NewReceiver(e.key, sess.WrappedKey())
	if err != nil {
		return nil, err
	}
	pt := make([]byte, etupleLen(e))
	aad := []byte("perfbench")
	var ct *hybrid.Ciphertext
	if out["hybrid.seal_us"], err = timeKernel(func() error {
		ct, err = sess.Seal(pt, aad)
		return err
	}); err != nil {
		return nil, err
	}
	if out["hybrid.open_us"], err = timeKernel(func() error {
		_, err := recv.Open(ct, aad)
		return err
	}); err != nil {
		return nil, err
	}
	now := time.Now()
	if out["credential.verify_us"], err = timeKernel(func() error {
		return e.creds[0].Verify(e.caKey, now)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func commutativeGroup(bits int) (*groups.Group, error) {
	switch bits {
	case 1536:
		return groups.MODP1536(), nil
	case 2048:
		return groups.MODP2048(), nil
	case 3072:
		return groups.MODP3072(), nil
	}
	return nil, fmt.Errorf("no commutative group of %d bits", bits)
}

// joinKeyMagnitude is the largest join key of R2, the size of the
// multiplier in the PM Horner steps.
func joinKeyMagnitude(e *env) int64 {
	var max int64 = 1
	k := e.r2.Schema().IndexOf("id")
	for _, t := range e.r2.Tuples() {
		if v := t[k].AsInt(); v > max {
			max = v
		}
	}
	return max
}

// etupleLen is the mean encoded tuple length of both relations, the
// plaintext size of one sealed etuple.
func etupleLen(e *env) int {
	total, n := 0, 0
	for _, r := range []*relation.Relation{e.r1, e.r2} {
		for _, t := range r.Tuples() {
			total += len(relation.EncodeValues(t, nil))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return total / n
}

// bulkMirror names the bulk fields of the protocol payloads (DAS, the
// commutative protocol, PM) with public types. gob matches fields by
// name and skips the rest, so a message decodes into it whatever its
// Go type, and re-encoding the mirror redoes the codec work on the bulk
// data.
type bulkMirror struct {
	Session                  string
	Schema, Schema1, Schema2 relation.Schema
	Result                   das.ServerResult
	EncRel                   das.EncryptedRelation
	EncIndexTables           []byte
	Items                    []struct {
		Hash    *big.Int
		Payload []byte
		ID      uint64
	}
	Pairs                 []struct{ T1, T2 []byte }
	Evals, Evals1, Evals2 []*paillier.Ciphertext
	Table, Table1, Table2 []struct {
		ID     uint64
		Sealed []byte
	}
	Buckets                        pm.EncryptedBuckets
	Wrapped1, Wrapped2, Enc1, Enc2 []byte
}

// codecKernels times the gob codec on the largest message of the traced
// run: decode = integrity check plus gob decode, encode = gob encode
// plus integrity seal, each in µs per KiB of message. It also returns
// the share of the message's bytes the mirror re-encodes to.
func codecKernels(m transport.Message) (enc, dec, coverage float64, err error) {
	if m.Size() == 0 {
		return 0, 0, 0, fmt.Errorf("no message recorded")
	}
	kib := float64(m.Size()) / 1024
	var v bulkMirror
	decUS, err := timeKernel(func() error {
		payload, err := transport.Payload(m)
		if err != nil {
			return err
		}
		v = bulkMirror{}
		return gob.NewDecoder(bytes.NewReader(payload)).Decode(&v)
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("decode %q: %w", m.Type, err)
	}
	var re transport.Message
	encUS, err := timeKernel(func() error {
		re, err = transport.NewMessage(m.Type, &v)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return encUS / kib, decUS / kib, float64(re.Size()) / float64(m.Size()), nil
}
