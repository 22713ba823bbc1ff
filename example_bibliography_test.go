package banks_test

import (
	"context"
	"fmt"
	"log"

	banks "github.com/banksdb/banks"
)

// Example_bibliography is the paper's running example. It loads a
// DBLP-style database (Figure 1 schema) seeded with the entities behind
// the Section 5.1 anecdotes, then replays those queries:
//
//   - "mohan": prestige ranks C. Mohan above the other Mohans
//   - "transaction": Gray's classics beat title-matching distractors
//   - "soumen sunita": coauthors connect through their shared papers
//   - "seltzer sunita": a common coauthor (Stonebraker) bridges them
func Example_bibliography() {
	db := banks.NewDatabase()
	if err := db.ExecScript(bibliographySchema); err != nil {
		log.Fatal(err)
	}
	if err := db.ExecScript(bibliographyData); err != nil {
		log.Fatal(err)
	}

	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	opts := &banks.SearchOptions{
		TopK:               5,
		ExcludedRootTables: []string{"Writes", "Cites"},
	}
	for _, q := range []string{"mohan", "transaction", "soumen sunita", "seltzer sunita"} {
		res, err := sys.Query(ctx, banks.Query{Text: q, Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results for %q:\n", q)
		for _, a := range res.Answers {
			fmt.Print(a.Format())
		}
		fmt.Println()
	}

	// Output:
	// results for "mohan":
	//  1. (0.8667) Author(AuthorId=MohanC, AuthorName=C. Mohan)  *
	//  2. (0.8444) Author(AuthorId=AhujaM, AuthorName=Mohan Ahuja)  *
	//  3. (0.8222) Author(AuthorId=KamatM, AuthorName=Mohan Kamat)  *
	//
	// results for "transaction":
	//  1. (1.0000) Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)  *
	//  2. (0.9778) Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)  *
	//  3. (0.8889) Paper(PaperId=Tx1, PaperName=Transaction Routing In Replicated Syste…)  *
	//  4. (0.8667) Paper(PaperId=Tx2, PaperName=Nested Transaction Scheduling)  *
	//
	// results for "soumen sunita":
	//  1. (0.1889) Paper(PaperId=ChakrabartiS99, PaperName=Scalable Mining of Sequential Surprise …)
	//     -> Writes(AuthorId=ChakrabartiS, PaperId=ChakrabartiS99)
	//         -> Author(AuthorId=ChakrabartiS, AuthorName=Soumen Chakrabarti)  *
	//     -> Writes(AuthorId=SarawagiS, PaperId=ChakrabartiS99)
	//         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  2. (0.1884) Paper(PaperId=ChakrabartiSD98, PaperName=Mining Surprising Patterns Using Tempor…)
	//     -> Writes(AuthorId=ChakrabartiS, PaperId=ChakrabartiSD98)
	//         -> Author(AuthorId=ChakrabartiS, AuthorName=Soumen Chakrabarti)  *
	//     -> Writes(AuthorId=SarawagiS, PaperId=ChakrabartiSD98)
	//         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  3. (0.1399) Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)
	//     -> Writes(AuthorId=GrayJ, PaperId=Gray81)
	//         -> Author(AuthorId=GrayJ, AuthorName=Jim Gray)
	//             -> Writes(AuthorId=GrayJ, PaperId=GrayR93)
	//                 -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//                     -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                         -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                             -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                                 -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//     -> Cites(Citing=ChakrabartiSD98, Cited=Gray81)
	//         -> Paper(PaperId=ChakrabartiSD98, PaperName=Mining Surprising Patterns Using Tempor…)
	//             -> Writes(AuthorId=ChakrabartiS, PaperId=ChakrabartiSD98)
	//                 -> Author(AuthorId=ChakrabartiS, AuthorName=Soumen Chakrabarti)  *
	//  4. (0.0971) Paper(PaperId=Mohan94, PaperName=Repeating History Beyond ARIES)
	//     -> Cites(Citing=Mohan94, Cited=Gray81)
	//         -> Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)
	//             -> Cites(Citing=ChakrabartiSD98, Cited=Gray81)
	//                 -> Paper(PaperId=ChakrabartiSD98, PaperName=Mining Surprising Patterns Using Tempor…)
	//                     -> Writes(AuthorId=ChakrabartiS, PaperId=ChakrabartiSD98)
	//                         -> Author(AuthorId=ChakrabartiS, AuthorName=Soumen Chakrabarti)  *
	//     -> Cites(Citing=Mohan94, Cited=GrayR93)
	//         -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//             -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                 -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                     -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  5. (0.0908) Paper(PaperId=Tx2, PaperName=Nested Transaction Scheduling)
	//     -> Cites(Citing=Tx2, Cited=Gray81)
	//         -> Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)
	//             -> Cites(Citing=ChakrabartiSD98, Cited=Gray81)
	//                 -> Paper(PaperId=ChakrabartiSD98, PaperName=Mining Surprising Patterns Using Tempor…)
	//                     -> Writes(AuthorId=ChakrabartiS, PaperId=ChakrabartiSD98)
	//                         -> Author(AuthorId=ChakrabartiS, AuthorName=Soumen Chakrabarti)  *
	//     -> Cites(Citing=Tx2, Cited=GrayR93)
	//         -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//             -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                 -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                     -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//
	// results for "seltzer sunita":
	//  1. (0.1331) Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)
	//     -> Writes(AuthorId=GrayJ, PaperId=Gray81)
	//         -> Author(AuthorId=GrayJ, AuthorName=Jim Gray)
	//             -> Writes(AuthorId=GrayJ, PaperId=GrayR93)
	//                 -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//                     -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                         -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                             -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                                 -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//     -> Cites(Citing=StonebrakerS90, Cited=Gray81)
	//         -> Paper(PaperId=StonebrakerS90, PaperName=Read Optimized File Layouts and Logging)
	//             -> Writes(AuthorId=SeltzerM, PaperId=StonebrakerS90)
	//                 -> Author(AuthorId=SeltzerM, AuthorName=Margo Seltzer)  *
	//  2. (0.1257) Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//     -> Cites(Citing=Tx1, Cited=GrayR93)
	//         -> Paper(PaperId=Tx1, PaperName=Transaction Routing In Replicated Syste…)
	//             -> Writes(AuthorId=StonebrakerM, PaperId=Tx1)
	//                 -> Author(AuthorId=StonebrakerM, AuthorName=Michael Stonebraker)
	//                     -> Writes(AuthorId=StonebrakerM, PaperId=StonebrakerS90)
	//                         -> Paper(PaperId=StonebrakerS90, PaperName=Read Optimized File Layouts and Logging)
	//                             -> Writes(AuthorId=SeltzerM, PaperId=StonebrakerS90)
	//                                 -> Author(AuthorId=SeltzerM, AuthorName=Margo Seltzer)  *
	//     -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//         -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//             -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                 -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  3. (0.1199) Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//     -> Writes(AuthorId=StonebrakerM, PaperId=StonebrakerS96)
	//         -> Author(AuthorId=StonebrakerM, AuthorName=Michael Stonebraker)
	//             -> Writes(AuthorId=StonebrakerM, PaperId=StonebrakerS90)
	//                 -> Paper(PaperId=StonebrakerS90, PaperName=Read Optimized File Layouts and Logging)
	//                     -> Writes(AuthorId=SeltzerM, PaperId=StonebrakerS90)
	//                         -> Author(AuthorId=SeltzerM, AuthorName=Margo Seltzer)  *
	//     -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  4. (0.0852) Paper(PaperId=Mohan94, PaperName=Repeating History Beyond ARIES)
	//     -> Writes(AuthorId=MohanC, PaperId=Mohan94)
	//         -> Author(AuthorId=MohanC, AuthorName=C. Mohan)
	//             -> Writes(AuthorId=MohanC, PaperId=Mohan92a)
	//                 -> Paper(PaperId=Mohan92a, PaperName=ARIES: A Recovery Method Supporting Fin…)
	//                     -> Cites(Citing=Tx1, Cited=Mohan92a)
	//                         -> Paper(PaperId=Tx1, PaperName=Transaction Routing In Replicated Syste…)
	//                             -> Writes(AuthorId=StonebrakerM, PaperId=Tx1)
	//                                 -> Author(AuthorId=StonebrakerM, AuthorName=Michael Stonebraker)
	//                                     -> Writes(AuthorId=StonebrakerM, PaperId=StonebrakerS90)
	//                                         -> Paper(PaperId=StonebrakerS90, PaperName=Read Optimized File Layouts and Logging)
	//                                             -> Writes(AuthorId=SeltzerM, PaperId=StonebrakerS90)
	//                                                 -> Author(AuthorId=SeltzerM, AuthorName=Margo Seltzer)  *
	//     -> Cites(Citing=Mohan94, Cited=GrayR93)
	//         -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//             -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                 -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                     -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
	//  5. (0.0839) Paper(PaperId=Tx2, PaperName=Nested Transaction Scheduling)
	//     -> Cites(Citing=Tx2, Cited=Gray81)
	//         -> Paper(PaperId=Gray81, PaperName=The Transaction Concept: Virtues and Li…)
	//             -> Cites(Citing=StonebrakerS90, Cited=Gray81)
	//                 -> Paper(PaperId=StonebrakerS90, PaperName=Read Optimized File Layouts and Logging)
	//                     -> Writes(AuthorId=SeltzerM, PaperId=StonebrakerS90)
	//                         -> Author(AuthorId=SeltzerM, AuthorName=Margo Seltzer)  *
	//     -> Cites(Citing=Tx2, Cited=GrayR93)
	//         -> Paper(PaperId=GrayR93, PaperName=Transaction Processing: Concepts and Te…)
	//             -> Cites(Citing=StonebrakerS96, Cited=GrayR93)
	//                 -> Paper(PaperId=StonebrakerS96, PaperName=Federated Warehouse Maintenance Infrast…)
	//                     -> Writes(AuthorId=SarawagiS, PaperId=StonebrakerS96)
	//                         -> Author(AuthorId=SarawagiS, AuthorName=Sunita Sarawagi)  *
}

const bibliographySchema = `
CREATE TABLE Paper  (PaperId TEXT PRIMARY KEY, PaperName TEXT);
CREATE TABLE Author (AuthorId TEXT PRIMARY KEY, AuthorName TEXT);
CREATE TABLE Writes (AuthorId TEXT REFERENCES Author, PaperId TEXT REFERENCES Paper);
CREATE TABLE Cites  (Citing TEXT REFERENCES Paper WEIGHT 2, Cited TEXT REFERENCES Paper WEIGHT 2);
`

const bibliographyData = `
INSERT INTO Author VALUES
	('SeltzerM', 'Margo Seltzer'),
	('StonebrakerM', 'Michael Stonebraker'),
	('DomB', 'Byron Dom'),
	('SarawagiS', 'Sunita Sarawagi'),
	('ChakrabartiS', 'Soumen Chakrabarti'),
	('ReuterA', 'Andreas Reuter'),
	('GrayJ', 'Jim Gray'),
	('KamatM', 'Mohan Kamat'),
	('AhujaM', 'Mohan Ahuja'),
	('MohanC', 'C. Mohan');

INSERT INTO Paper VALUES
	('ChakrabartiSD98', 'Mining Surprising Patterns Using Temporal Description Length'),
	('ChakrabartiS99', 'Scalable Mining of Sequential Surprise Measures'),
	('Gray81', 'The Transaction Concept: Virtues and Limitations'),
	('GrayR93', 'Transaction Processing: Concepts and Techniques'),
	('StonebrakerS90', 'Read Optimized File Layouts and Logging'),
	('StonebrakerS96', 'Federated Warehouse Maintenance Infrastructure'),
	('Mohan92a', 'ARIES: A Recovery Method Supporting Fine-Granularity Locking'),
	('Mohan92b', 'ARIES-IM: Concurrent Index Management'),
	('Mohan94', 'Repeating History Beyond ARIES'),
	('Ahuja90', 'Flooding Protocols For Broadcast Networks'),
	('Kamat95', 'Replicated Object Placement'),
	('Tx1', 'Transaction Routing In Replicated Systems'),
	('Tx2', 'Nested Transaction Scheduling');

INSERT INTO Writes VALUES
	('ChakrabartiS', 'ChakrabartiSD98'), ('SarawagiS', 'ChakrabartiSD98'), ('DomB', 'ChakrabartiSD98'),
	('ChakrabartiS', 'ChakrabartiS99'), ('SarawagiS', 'ChakrabartiS99'),
	('GrayJ', 'Gray81'),
	('GrayJ', 'GrayR93'), ('ReuterA', 'GrayR93'),
	('StonebrakerM', 'StonebrakerS90'), ('SeltzerM', 'StonebrakerS90'),
	('StonebrakerM', 'StonebrakerS96'), ('SarawagiS', 'StonebrakerS96'),
	('MohanC', 'Mohan92a'), ('MohanC', 'Mohan92b'), ('MohanC', 'Mohan94'),
	('AhujaM', 'Ahuja90'),
	('KamatM', 'Kamat95'),
	('StonebrakerM', 'Tx1'),
	('AhujaM', 'Tx2');

INSERT INTO Cites VALUES
	('GrayR93', 'Gray81'), ('Mohan92a', 'Gray81'), ('Mohan92b', 'Gray81'),
	('Mohan94', 'Gray81'), ('StonebrakerS90', 'Gray81'), ('Tx1', 'Gray81'),
	('Tx2', 'Gray81'), ('ChakrabartiSD98', 'Gray81'),
	('Mohan92a', 'GrayR93'), ('Mohan94', 'GrayR93'), ('Tx1', 'GrayR93'),
	('Tx2', 'GrayR93'), ('StonebrakerS96', 'GrayR93'),
	('Mohan92b', 'Mohan92a'), ('Mohan94', 'Mohan92a'), ('Tx1', 'Mohan92a'),
	('ChakrabartiS99', 'ChakrabartiSD98');
`
