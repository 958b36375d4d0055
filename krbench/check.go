package main

import (
	"fmt"
	"sync"

	"krcore"
)

// answer runs q on an in-process engine and digests the result.
func answer(eng *krcore.Engine, q readReq) (uint64, error) {
	var res *krcore.Result
	var err error
	switch q.Kind {
	case kindEnum:
		res, err = eng.Enumerate(q.Set.K, q.Set.R, krcore.EnumOptions{})
	case kindMaximum:
		res, err = eng.FindMaximum(q.Set.K, q.Set.R, krcore.MaxOptions{})
	default:
		res, err = eng.EnumerateContaining(q.Set.K, q.Set.R, q.V, krcore.EnumOptions{})
	}
	if err != nil {
		return 0, err
	}
	if res.TimedOut {
		return 0, fmt.Errorf("reference %s k=%d r=%g timed out", q.Kind, q.Set.K, q.Set.R)
	}
	return digestCores(res.Cores, res.Nodes), nil
}

// refKey identifies an answer; enumerate and maximum ignore V.
func refKey(q readReq) readReq {
	if q.Kind != kindContaining {
		q.V = -1
	}
	return q
}

// checkReads compares every successful response with the answer of a
// fresh in-process engine over the same graph and metric. Requests are
// checked in blocks of block consecutive indexes, each block against
// its own fresh engine, so the reference cache stays as bounded as the
// served one; workers blocks run in parallel. It returns the number of
// mismatching responses and the first mismatch.
func checkReads(recs []readRec, newEngine func() *krcore.Engine, block int64, workers int) (int, error) {
	byBlock := map[int64][]readRec{}
	var blocks []int64
	for _, r := range recs {
		if !r.ok {
			continue
		}
		b := r.idx / block
		if _, ok := byBlock[b]; !ok {
			blocks = append(blocks, b)
		}
		byBlock[b] = append(byBlock[b], r)
	}
	var (
		mu    sync.Mutex
		bad   int
		first error
		wg    sync.WaitGroup
	)
	work := make(chan int64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				n, err := checkBlock(byBlock[b], newEngine())
				mu.Lock()
				bad += n
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range blocks {
		work <- b
	}
	close(work)
	wg.Wait()
	return bad, first
}

func checkBlock(recs []readRec, eng *krcore.Engine) (int, error) {
	memo := map[readReq]uint64{}
	bad := 0
	var first error
	for _, r := range recs {
		key := refKey(r.req)
		want, ok := memo[key]
		if !ok {
			d, err := answer(eng, r.req)
			if err != nil {
				return bad + 1, err
			}
			memo[key], want = d, d
		}
		if r.digest != want {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d (%s k=%d r=%g v=%d): response differs from a fresh engine",
					r.idx, r.req.Kind, r.req.Set.K, r.req.Set.R, r.req.V)
			}
		}
	}
	return bad, first
}
