package core

import (
	"context"
	"fmt"

	"repro/internal/rmi"
	"repro/internal/wire"
)

// GetBatch: the streaming bulk-read service (the Get-Batch workload from
// the paper's evaluation, §5). One request names N exported objects; the
// server streams one entry per object, in request order, through the rmi
// stream layer — so a 64-object read is ONE request and the client
// consumes early entries while later ones are still being produced.
//
// Entries carry a caller-assigned index so the cluster layer can fan a
// global batch out across servers and merge the per-server streams back
// into request order (see cluster.GetBatch).

// GetBatchService is the rmi stream service name the Executor serves.
const GetBatchService = "core.getbatch"

// getBatchRequest names the objects to read, in request order. Indexes are
// caller-assigned (global positions in a fanned-out batch), parallel to
// ObjIDs. An empty Method reads each object's Snapshot(); otherwise Method
// is invoked with no arguments and its first result is the value. Names,
// when present, is parallel to ObjIDs: a non-empty entry is resolved in the
// serving peer's registry and its id ignored.
type getBatchRequest struct {
	ObjIDs  []uint64
	Indexes []int64
	Method  string
	Names   []string
}

// GetBatchEntry is one delivered result. A per-object failure (unknown id,
// snapshot error) arrives as Err on that entry; it does not abort the rest
// of the stream.
type GetBatchEntry struct {
	Index int64
	Value any
	Err   error
}

func encGetBatchRequest(x wire.Enc, r *getBatchRequest) error {
	n := 3
	if r.Names != nil {
		n = 4
	}
	x.BeginStruct("brmi.getbatch.req", n)
	x.Slice(len(r.ObjIDs))
	for _, id := range r.ObjIDs {
		x.Uint(id)
	}
	x.Slice(len(r.Indexes))
	for _, ix := range r.Indexes {
		x.Int(ix)
	}
	x.Str(r.Method)
	if n > 3 {
		encStrSlice(x, r.Names)
	}
	return nil
}

func decGetBatchRequest(x wire.Dec, r *getBatchRequest, n int) error {
	if n > 0 {
		sn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if sn >= 0 {
			r.ObjIDs = make([]uint64, sn)
			for i := range r.ObjIDs {
				if r.ObjIDs[i], err = x.Uint(); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		sn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if sn >= 0 {
			r.Indexes = make([]int64, sn)
			for i := range r.Indexes {
				if r.Indexes[i], err = x.Int(); err != nil {
					return err
				}
			}
		}
	}
	if n > 2 {
		var err error
		if r.Method, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 3 {
		var err error
		if r.Names, err = decStrSlice(x); err != nil {
			return err
		}
		if r.Names != nil && len(r.Names) != len(r.ObjIDs) {
			return &wire.CorruptError{Detail: fmt.Sprintf("getbatch request carries %d names for %d ids", len(r.Names), len(r.ObjIDs))}
		}
	}
	return x.SkipFields(n - 4)
}

func encGetBatchEntry(x wire.Enc, r *GetBatchEntry) error {
	x.BeginStruct("brmi.getbatch.entry", 3)
	x.Int(r.Index)
	if err := x.Value(r.Value); err != nil {
		return err
	}
	return x.Value(r.Err)
}

func decGetBatchEntry(x wire.Dec, r *GetBatchEntry, n int) error {
	var err error
	if n > 0 {
		if r.Index, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if r.Value, err = x.Value(); err != nil {
			return err
		}
	}
	if n > 2 {
		if r.Err, err = x.ErrVal(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 3)
}

func init() {
	wire.MustRegisterCompiled("brmi.getbatch.req", true, encGetBatchRequest, decGetBatchRequest)
	wire.MustRegisterCompiled("brmi.getbatch.entry", true, encGetBatchEntry, decGetBatchEntry)
}

// snapshotter is the structural slice of cluster.Movable this package needs
// (a core→cluster import would cycle): state-bearing objects expose their
// migration snapshot, which doubles as the bulk-read payload.
type snapshotter interface {
	Snapshot() (any, error)
}

// serveGetBatch streams one entry per requested object, in request order.
// Registered as the GetBatchService stream handler by Install. Entries are
// read (and counted) under core.getbatch_entries, NOT core.calls_executed:
// replica replay accounting (chaos invariant 6) cross-checks the latter
// against client acks, and bulk reads are not acked calls.
func (e *Executor) serveGetBatch(ctx context.Context, req any, w *rmi.EntryWriter) error {
	r, ok := req.(*getBatchRequest)
	if !ok {
		return fmt.Errorf("brmi: getbatch: unexpected request type %T", req)
	}
	if len(r.Indexes) != len(r.ObjIDs) {
		return fmt.Errorf("brmi: getbatch: %d ids but %d indexes", len(r.ObjIDs), len(r.Indexes))
	}
	if r.Names != nil && len(r.Names) != len(r.ObjIDs) {
		return fmt.Errorf("brmi: getbatch: %d ids but %d names", len(r.ObjIDs), len(r.Names))
	}
	e.getbatchBatches.Inc()
	for i, objID := range r.ObjIDs {
		entry := GetBatchEntry{Index: r.Indexes[i]}
		var nameErr error
		if r.Names != nil && r.Names[i] != "" {
			var ref wire.Ref
			ref, nameErr = e.resolveName(r.Names[i])
			objID = ref.ObjID
		}
		obj, found := e.peer.LocalObject(objID)
		switch {
		case nameErr != nil:
			entry.Err = nameErr
		case !found:
			entry.Err = e.missingRoot(objID)
		case r.Method != "":
			results, ierr := e.peer.InvokeLocal(ctx, obj, r.Method, nil)
			if ierr != nil {
				entry.Err = ierr
			} else if len(results) > 0 {
				entry.Value = results[0]
			}
		default:
			s, can := obj.(snapshotter)
			if !can {
				entry.Err = fmt.Errorf("brmi: getbatch: object %d (%T) has no snapshot", objID, obj)
			} else if v, serr := s.Snapshot(); serr != nil {
				entry.Err = serr
			} else {
				entry.Value = v
			}
		}
		if entry.Value != nil {
			wv, werr := e.peer.ToWire(entry.Value)
			if werr != nil {
				entry.Value, entry.Err = nil, fmt.Errorf("brmi: getbatch: marshal object %d: %w", objID, werr)
			} else {
				entry.Value = wv
			}
		}
		e.getbatchEntries.Inc()
		if err := w.WriteEntry(&entry); err != nil {
			return err
		}
	}
	return nil
}

// GetBatchStream is the consumer end of one server's GetBatch stream.
type GetBatchStream struct {
	sc *rmi.StreamCall
}

// GetBatch issues one streaming bulk read against endpoint: objIDs are the
// exported object ids to read there, indexes the caller's global positions
// (parallel to objIDs), method the readonly accessor ("" = Snapshot). names,
// nil or parallel to objIDs, addresses entries by registry name instead: the
// server resolves a non-empty name locally, and a name it cannot resolve
// fails only its own entry (*rmi.WrongHomeError for one migrated away). The
// stream must be drained to io.EOF or closed.
func GetBatch(ctx context.Context, p *rmi.Peer, endpoint string, objIDs []uint64, indexes []int64, method string, names []string) (*GetBatchStream, error) {
	sc, err := p.CallStream(ctx, endpoint, GetBatchService, &getBatchRequest{
		ObjIDs:  objIDs,
		Indexes: indexes,
		Method:  method,
		Names:   names,
	})
	if err != nil {
		return nil, err
	}
	return &GetBatchStream{sc: sc}, nil
}

// Next returns the next entry in request order, or io.EOF after the last.
func (s *GetBatchStream) Next() (*GetBatchEntry, error) {
	v, err := s.sc.Next()
	if err != nil {
		return nil, err
	}
	entry, ok := v.(*GetBatchEntry)
	if !ok {
		return nil, fmt.Errorf("brmi: getbatch: unexpected entry type %T", v)
	}
	return entry, nil
}

// Close abandons the stream, canceling the producer. Safe after EOF.
func (s *GetBatchStream) Close() error { return s.sc.Close() }
