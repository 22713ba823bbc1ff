// Thesis: the paper's second dataset, demonstrating browsing (Section 4)
// alongside search. The example builds a small university thesis database,
// serves the BANKS web UI on an ephemeral port, and walks the Figure 4
// browsing session over HTTP: start at the thesis relation, join the
// student and faculty (advisor) relations in, and follow hyperlinks —
// then replays the §5.1 thesis anecdotes as keyword queries.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	banks "github.com/banksdb/banks"
)

func main() {
	db := banks.NewDatabase()
	if err := db.ExecScript(schema); err != nil {
		log.Fatal(err)
	}
	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the browsing UI on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	srv := &http.Server{Handler: sys.ServeHandler(nil)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("BANKS web UI serving at %s\n\n", base)

	// The Figure 4 session: browse thesis, join in student and advisor.
	page := fetch(base + "/browse?table=thesis&join=rollno&join=advisor&fcol=rollno&fop=%3D&fval=S0001")
	fmt.Println("browse thesis ⋈ student ⋈ faculty (Aditya's row):")
	fmt.Printf("  joined columns present: student.name=%v faculty.name=%v\n",
		strings.Contains(page, "student.name"), strings.Contains(page, "faculty.name"))
	fmt.Printf("  advisor visible: %v\n\n", strings.Contains(page, "S. Sudarshan"))

	// Follow the FK hyperlink to the student tuple, then browse backwards.
	tuplePage := fetch(base + "/tuple?table=student&pk=S0001")
	fmt.Println("tuple page for student S0001:")
	fmt.Printf("  back-references shown: %v\n\n", strings.Contains(tuplePage, "Referenced by"))

	// Keyword search anecdotes (§5.1).
	for _, q := range []string{"computer engineering", "sudarshan aditya"} {
		res, err := sys.Query(context.Background(), banks.Query{Text: q})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results for %q:\n", q)
		for i, a := range res.Answers {
			if i >= 3 {
				break
			}
			fmt.Print(a.Format())
		}
		fmt.Println()
	}
}

func fetch(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}

const schema = `
CREATE TABLE department (deptid INT PRIMARY KEY, name TEXT);
CREATE TABLE program (progid INT PRIMARY KEY, name TEXT, deptid INT REFERENCES department);
CREATE TABLE faculty (facid TEXT PRIMARY KEY, name TEXT, deptid INT REFERENCES department);
CREATE TABLE student (rollno TEXT PRIMARY KEY, name TEXT, progid INT REFERENCES program);
CREATE TABLE thesis (thesisid TEXT PRIMARY KEY, title TEXT,
	rollno TEXT REFERENCES student, advisor TEXT REFERENCES faculty);

INSERT INTO department VALUES (1, 'Computer Science and Engineering'), (2, 'Electrical Systems');
INSERT INTO program VALUES (1, 'MTech', 1), (2, 'PhD', 1), (3, 'MTech', 2);
INSERT INTO faculty VALUES
	('FS01', 'S. Sudarshan', 1),
	('F002', 'Helena Weber', 1),
	('F003', 'Kenji Tanaka', 2);
INSERT INTO student VALUES
	('S0001', 'Aditya Birla', 1),
	('S0002', 'Nina Rossi', 1),
	('S0003', 'Carlos Santos', 2),
	('S0004', 'Petra Vogel', 3);
INSERT INTO thesis VALUES
	('T0001', 'Keyword Searching in Graph Structured Data', 'S0001', 'FS01'),
	('T0002', 'Materialized View Maintenance', 'S0002', 'F002'),
	('T0003', 'Computer Aided Engineering of Circuits', 'S0004', 'F003');
`
