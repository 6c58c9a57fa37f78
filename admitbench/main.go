// Command admitbench is the end-to-end admission benchmark: it starts the
// durable admission daemon in this process and drives it over loopback
// HTTP with one closed-loop writer and one scheduled reader, then checks
// the outcome and prints every metric by name and unit. See README.md for
// the workloads, the metrics and the layer each one belongs to.
//
// Usage:
//
//	admitbench --workload admit-steady|repair-churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics pooled over five episodes of S/5 seconds, each with
// its own set-up; --trace 1 runs an untraced and a traced episode of S/2
// seconds each and reports the per-layer metrics.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"sqpr/internal/dsps"
)

func main() {
	workload := flag.String("workload", "admit-steady", "workload to run: admit-steady or repair-churn")
	seed := flag.Int64("seed", 1, "seed of the generated request sequence")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "runs"), "directory for journals and the span file")
	flag.Parse()

	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "admitbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// episodes is how many independent set-ups and windows an untraced run
// splits its time into. Each episode starts from its own seeded state, so a
// run averages over several admitted populations instead of inheriting one.
const episodes = 5

func run(workload string, seed int64, window time.Duration, traced bool, workdir string) error {
	res, err := measure(workload, seed, window, traced, workdir, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// measure runs the workload and returns its result, writing the
// human-readable report to out.
func measure(workload string, seed int64, window time.Duration, traced bool, workdir string, out io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric)}
	sp, err := specByName(workload)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return res, err
	}
	var passes []*pass
	if traced {
		// Both halves replay the first episode's request sequence, so the
		// overhead compares like with like.
		es := seed * episodes
		plain, err := runPass(sp, es, window/2, nil, workdir)
		if err != nil {
			return res, err
		}
		tr := newTracer()
		tp, err := runPass(sp, es, window/2, tr, workdir)
		if err != nil {
			return res, err
		}
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, seed))
		if err := tr.writeFile(path); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: written to %s\n", path)
		passes = []*pass{plain, tp}
		for _, p := range passes {
			p.report(out, es)
		}
		layerMetrics(res.Metrics, tp, plain)
	} else {
		for i := int64(0); i < episodes; i++ {
			p, err := runPass(sp, seed*episodes+i, window/episodes, nil, workdir)
			if err != nil {
				return res, err
			}
			p.report(out, seed*episodes+i)
			passes = append(passes, p)
		}
		endToEnd(res.Metrics, passes, out)
	}

	res.Correct = true
	for _, p := range passes {
		res.Attempted += p.writes + p.reads
		res.Failed += p.writeFail + p.readFail
		for _, c := range p.failedChecks {
			fmt.Fprintln(out, "CHECK FAILED:", c)
			res.Correct = false
		}
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// digest folds an admission verdict sequence into one comparable value.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(q dsps.StreamID, admitted bool) {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[0:], d.sum)
	binary.LittleEndian.PutUint64(b[8:], uint64(q))
	if admitted {
		b[16] = 1
	}
	h := fnv.New64a()
	h.Write(b[:])
	d.sum = h.Sum64()
	d.n++
}

func (d digest) String() string { return fmt.Sprintf("%016x/%d", d.sum, d.n) }
