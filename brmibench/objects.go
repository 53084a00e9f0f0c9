package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// The remote objects the workloads drive. They are defined here, not taken
// from the program's own bench package, so that the instrument stays fixed
// while the program under test changes.

// Interface names the objects export under.
const (
	echoIface    = "brmibench.Echo"
	accountIface = "brmibench.Account"
	blobIface    = "brmibench.Blob"
)

// Payload is the hot-echo argument and result: a registered struct with a
// string, integers, a byte body and a duration, so every call exercises the
// whole codec surface and not just the framing.
type Payload struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Elapsed time.Duration
}

// payloadFields is the number of fields encPayload writes.
const payloadFields = 5

func encPayload(x wire.Enc, p *Payload) error {
	x.BeginStruct("brmibench.payload", payloadFields)
	x.Int(p.ID)
	x.Str(p.Name)
	x.Uint(p.Seq)
	x.BytesVal(p.Data)
	x.Int(int64(p.Elapsed))
	return nil
}

func decPayload(x wire.Dec, p *Payload, n int) error {
	var err error
	if n > 0 {
		if p.ID, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if p.Name, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 2 {
		if p.Seq, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 3 {
		if p.Data, err = x.BytesVal(); err != nil {
			return err
		}
	}
	if n > 4 {
		if p.Elapsed, err = x.Dur(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - payloadFields)
}

// Echo returns its argument, so each call marshals the payload twice on
// both peers.
type Echo struct {
	rmi.RemoteBase
}

// Echo returns p unchanged.
func (*Echo) Echo(p Payload) Payload { return p }

// DispatchLocal is the reflection-free skeleton (rmi.LocalDispatcher), the
// shape brmigen emits for generated services.
func (e *Echo) DispatchLocal(_ context.Context, method string, args []any, buf []any) ([]any, bool, error) {
	if method != "Echo" || len(args) != 1 {
		return nil, false, nil
	}
	p, ok := args[0].(Payload)
	if !ok {
		return nil, false, nil
	}
	return append(buf[:0], e.Echo(p)), true, nil
}

// Account is the named-rw object: a movable balance. Withdraw never
// refuses, so no operation of the workload fails by design.
type Account struct {
	rmi.RemoteBase
	mu  sync.Mutex
	bal int64
}

// Balance returns the current balance.
func (a *Account) Balance() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bal
}

// Deposit adds n and returns the new balance.
func (a *Account) Deposit(n int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bal += n
	return a.bal
}

// Withdraw takes n and returns the amount taken, so its future can feed a
// Deposit on another account.
func (a *Account) Withdraw(n int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bal -= n
	return n
}

// Snapshot captures the balance for migration and replica seeding.
func (a *Account) Snapshot() (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bal, nil
}

// Restore applies a snapshot.
func (a *Account) Restore(state any) error {
	n, ok := state.(int64)
	if !ok {
		return fmt.Errorf("brmibench: account restore: unexpected state %T", state)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bal = n
	return nil
}

// Blob is the bulk-get object: a movable byte body whose snapshot is what
// GetBatch reads.
type Blob struct {
	rmi.RemoteBase
	mu   sync.Mutex
	data []byte
}

// Snapshot returns the body.
func (b *Blob) Snapshot() (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data, nil
}

// Restore replaces the body.
func (b *Blob) Restore(state any) error {
	data, ok := state.([]byte)
	if !ok {
		return fmt.Errorf("brmibench: blob restore: unexpected state %T", state)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = data
	return nil
}

func init() {
	wire.MustRegisterCompiled("brmibench.payload", false, encPayload, decPayload)
	cluster.RegisterMovable(accountIface, func() rmi.Remote { return &Account{} })
	cluster.RegisterMovable(blobIface, func() rmi.Remote { return &Blob{} })
	rmi.RegisterReadOnly(accountIface, "Balance")
}
