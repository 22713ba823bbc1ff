package banks_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	banks "github.com/banksdb/banks"
)

// Example_xmlsearch is the paper's Section 7 XML extension. An XML
// document is shredded into element/attribute relations, and containment
// becomes foreign-key edges, exactly as the paper suggests ("we can model
// containment simply as edges of a new type"). Keyword queries then
// return connection trees through the document structure: two keywords
// from different children meet at their common ancestor element.
func Example_xmlsearch() {
	db := banks.NewDatabase()
	n, err := db.LoadXML(strings.NewReader(xmlCatalog), "courses")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shredded %d XML elements into %v\n\n", n, db.Tables())

	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		log.Fatal(err)
	}

	// "ranking soumen": the topic and the instructor connect at their
	// <course> element, the information node.
	for _, q := range []string{"ranking soumen", "recovery sudarshan", "cs725"} {
		res, err := sys.Query(context.Background(), banks.Query{
			Text:    q,
			Options: &banks.SearchOptions{TopK: 3},
		})
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
	// shredded 15 XML elements into [xml_element xml_attribute]
	//
	// results for "ranking soumen":
	//  1. (0.2084) xml_element(eid=7, doc=courses, tag=course, content=NULL, parent=1)
	//     -> xml_element(eid=9, doc=courses, tag=instructor, content=Soumen Chakrabarti, parent=7)  *
	//     -> xml_element(eid=11, doc=courses, tag=topic, content=ranking, parent=7)  *
	//
	// results for "recovery sudarshan":
	//  1. (0.2084) xml_element(eid=2, doc=courses, tag=course, content=NULL, parent=1)
	//     -> xml_element(eid=4, doc=courses, tag=instructor, content=Sudarshan, parent=2)  *
	//     -> xml_element(eid=6, doc=courses, tag=topic, content=recovery, parent=2)  *
	//
	// results for "cs725":
	//  1. (0.8000) xml_attribute(elem=12, name=code, value=CS725)  *
}

const xmlCatalog = `<?xml version="1.0"?>
<catalog>
  <course code="CS631">
    <title>Advanced Database Systems</title>
    <instructor>Sudarshan</instructor>
    <topic>query processing</topic>
    <topic>recovery</topic>
  </course>
  <course code="CS728">
    <title>Web Search and Mining</title>
    <instructor>Soumen Chakrabarti</instructor>
    <topic>crawling</topic>
    <topic>ranking</topic>
  </course>
  <course code="CS725">
    <title>Foundations of Machine Learning</title>
    <instructor>Sunita Sarawagi</instructor>
    <topic>classification</topic>
  </course>
</catalog>`
