package banks_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	banks "github.com/banksdb/banks"
)

// Example_thesis is the paper's second dataset, demonstrating browsing
// (Section 4) alongside search. It builds a small university thesis
// database, serves the BANKS web UI and walks the Figure 4 browsing
// session over HTTP: start at the thesis relation, join the student and
// faculty (advisor) relations in, and follow hyperlinks. Then it replays
// the §5.1 thesis anecdotes as keyword queries.
func Example_thesis() {
	db := banks.NewDatabase()
	if err := db.ExecScript(thesisSchema); err != nil {
		log.Fatal(err)
	}
	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the browsing UI on an ephemeral port.
	srv := httptest.NewServer(sys.ServeHandler(nil))
	defer srv.Close()

	// The Figure 4 session: browse thesis, join in student and advisor.
	page := fetch(srv.URL + "/browse?table=thesis&join=rollno&join=advisor&fcol=rollno&fop=%3D&fval=S0001")
	fmt.Println("browse thesis ⋈ student ⋈ faculty (Aditya's row):")
	fmt.Printf("  joined columns present: student.name=%v faculty.name=%v\n",
		strings.Contains(page, "student.name"), strings.Contains(page, "faculty.name"))
	fmt.Printf("  advisor visible: %v\n\n", strings.Contains(page, "S. Sudarshan"))

	// Follow the FK hyperlink to the student tuple, then browse backwards.
	tuplePage := fetch(srv.URL + "/tuple?table=student&pk=S0001")
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

	// Output:
	// browse thesis ⋈ student ⋈ faculty (Aditya's row):
	//   joined columns present: student.name=true faculty.name=true
	//   advisor visible: true
	//
	// tuple page for student S0001:
	//   back-references shown: true
	//
	// results for "computer engineering":
	//  1. (1.0000) department(deptid=1, name=Computer Science and Engineering)  *
	//  2. (0.8000) thesis(thesisid=T0003, title=Computer Aided Engineering of Circuits, rollno=S0004, advisor=F003)  *
	//
	// results for "sudarshan aditya":
	//  1. (0.3000) thesis(thesisid=T0001, title=Keyword Searching in Graph Structured D…, rollno=S0001, advisor=FS01)
	//     -> faculty(facid=FS01, name=S. Sudarshan, deptid=1)  *
	//     -> student(rollno=S0001, name=Aditya Birla, progid=1)  *
	//  2. (0.2390) department(deptid=1, name=Computer Science and Engineering)
	//     -> program(progid=1, name=MTech, deptid=1)
	//         -> student(rollno=S0001, name=Aditya Birla, progid=1)  *
	//     -> faculty(facid=FS01, name=S. Sudarshan, deptid=1)  *
	//  3. (0.1313) thesis(thesisid=T0002, title=Materialized View Maintenance, rollno=S0002, advisor=F002)
	//     -> faculty(facid=F002, name=Helena Weber, deptid=1)
	//         -> department(deptid=1, name=Computer Science and Engineering)
	//             -> faculty(facid=FS01, name=S. Sudarshan, deptid=1)  *
	//     -> student(rollno=S0002, name=Nina Rossi, progid=1)
	//         -> program(progid=1, name=MTech, deptid=1)
	//             -> student(rollno=S0001, name=Aditya Birla, progid=1)  *
}

// fetch GETs url and returns its body.
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

const thesisSchema = `
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
