package server

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"seprivgemb/internal/spec"
)

// FetchMain implements `sepriv fetch`: a thin HTTP client over the result
// API that retrieves a finished job's embedding — a single explicit row
// window with -rows lo:hi, or the whole matrix paged through the range
// cursor — and writes it as TSV (node id then r values per line, the same
// layout `sepriv -out` produces). Because every page and window response
// carries the full-matrix embeddingHash, the client checks that all pages
// it stitched together came from one and the same training run. Returns
// the process exit code.
func FetchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepriv fetch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8470", "base URL of the job server")
		jobID   = fs.String("job", "", "job ID to fetch (required)")
		rows    = fs.String("rows", "", "row window lo:hi — fetch only these embedding rows")
		page    = fs.Int("page", 1024, "rows per request when paging the full embedding")
		outPath = fs.String("out", "", "write TSV here instead of stdout")
		asJSON  = fs.Bool("json", false, "emit one JSON object (the server's wire response) instead of TSV")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobID == "" {
		fmt.Fprintln(stderr, "sepriv fetch: -job is required")
		return 2
	}
	out := io.Writer(stdout)
	var finish func() error
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "sepriv fetch: %v\n", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		out = bw
		// A failed flush or close must fail the fetch: exiting 0 with a
		// truncated TSV would defeat the client's integrity contract.
		finish = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	var fetchErr error
	if *asJSON {
		fetchErr = fetchJSON(*addr, *jobID, *rows, out)
	} else {
		fetchErr = fetch(*addr, *jobID, *rows, *page, out, stderr)
	}
	if fetchErr != nil {
		if finish != nil {
			finish()
		}
		fmt.Fprintf(stderr, "sepriv fetch: %v\n", fetchErr)
		return 1
	}
	if finish != nil {
		if err := finish(); err != nil {
			fmt.Fprintf(stderr, "sepriv fetch: writing %s: %v\n", *outPath, err)
			return 1
		}
	}
	return 0
}

// fetchJSON implements -json: emit the server's wire response verbatim —
// one JSON object with the stable field order of the internal/spec
// response types — so scripts consume results without TSV parsing. A
// finished job emits its ResultResponse (the -rows window when given,
// metadata-only otherwise: scripts after the matrix page the TSV path); an
// unfinished job emits its JobResponse, status and timing included.
func fetchJSON(addr, jobID, rows string, out io.Writer) error {
	client := &http.Client{Timeout: 60 * time.Second}
	base := strings.TrimRight(addr, "/")
	var job spec.JobResponse
	jobBody, err := getRaw(client, fmt.Sprintf("%s/v1/jobs/%s", base, jobID), &job)
	if err != nil {
		return err
	}
	if job.Status != "done" {
		_, err = out.Write(jobBody)
		return err
	}
	url := fmt.Sprintf("%s/v1/jobs/%s/result?embedding=none", base, jobID)
	if rows != "" {
		lo, hi, err := parseRowsFlag(rows)
		if err != nil {
			return err
		}
		url = fmt.Sprintf("%s/v1/jobs/%s/result/rows/%d-%d", base, jobID, lo, hi)
	}
	var res spec.ResultResponse
	resBody, err := getRaw(client, url, &res)
	if err != nil {
		return err
	}
	_, err = out.Write(resBody)
	return err
}

// getRaw fetches url, validates the 200 body by decoding it into v, and
// returns the raw bytes — the pass-through that keeps -json output
// byte-identical to the server's encoding. Like getJSON it rides the
// Retry-After backoff policy through 429/503 pushback.
func getRaw(client *http.Client, url string, v any) ([]byte, error) {
	resp, err := defaultRetryPolicy().get(client, url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return body, nil
}

// parseRowsFlag parses "-rows lo:hi" as a half-open range [lo, hi).
func parseRowsFlag(s string) (lo, hi int, err error) {
	if lo, hi, err = parseRowRange(s, ":"); err != nil {
		return 0, 0, fmt.Errorf("-rows %q, want lo:hi with 0 <= lo <= hi", s)
	}
	return lo, hi, nil
}

func fetch(addr, jobID, rows string, page int, out, status io.Writer) error {
	client := &http.Client{Timeout: 60 * time.Second}
	base := strings.TrimRight(addr, "/")
	if rows != "" {
		lo, hi, err := parseRowsFlag(rows)
		if err != nil {
			return err
		}
		var fr spec.ResultResponse
		url := fmt.Sprintf("%s/v1/jobs/%s/result/rows/%d-%d", base, jobID, lo, hi)
		if err := getJSON(client, url, http.StatusOK, &fr); err != nil {
			return err
		}
		fmt.Fprintf(status, "job %s (%s): %dx%d embedding, epochs %d, hash %s; rows [%d, %d)\n",
			jobID, fr.Method, fr.Nodes, fr.Dim, fr.Epochs, fr.EmbeddingHash, lo, hi)
		return writeRowsTSV(out, lo, fr.Embedding)
	}
	// Page through the whole embedding on the range cursor; the server
	// never materializes more than one page per response.
	next := fmt.Sprintf("%s/v1/jobs/%s/result?embedding=range&offset=0&limit=%d", base, jobID, page)
	hash, fetched := "", 0
	for next != "" {
		var fr spec.ResultResponse
		if err := getJSON(client, next, http.StatusOK, &fr); err != nil {
			return err
		}
		if hash == "" {
			hash = fr.EmbeddingHash
			fmt.Fprintf(status, "job %s (%s): %dx%d embedding, epochs %d, hash %s\n",
				jobID, fr.Method, fr.Nodes, fr.Dim, fr.Epochs, fr.EmbeddingHash)
		} else if fr.EmbeddingHash != hash {
			return fmt.Errorf("embedding hash changed mid-pagination (%s then %s): result was replaced between pages",
				hash, fr.EmbeddingHash)
		}
		if fr.Range == nil {
			return fmt.Errorf("range response carries no range metadata")
		}
		if err := writeRowsTSV(out, fr.Range.Offset, fr.Embedding); err != nil {
			return err
		}
		fetched += fr.RowCount
		if fr.Range.Next == "" {
			if fetched != fr.Nodes {
				return fmt.Errorf("pagination ended after %d of %d rows", fetched, fr.Nodes)
			}
			break
		}
		next = base + fr.Range.Next
	}
	fmt.Fprintf(status, "fetched %d rows\n", fetched)
	return nil
}

// writeRowsTSV appends rows as TSV, numbering nodes from lo.
func writeRowsTSV(w io.Writer, lo int, rows [][]float64) error {
	for i, row := range rows {
		if _, err := fmt.Fprintf(w, "%d", lo+i); err != nil {
			return err
		}
		for _, v := range row {
			if _, err := fmt.Fprintf(w, "\t%.6g", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
