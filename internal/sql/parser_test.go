package sql_test

import (
	"errors"
	"strings"
	"testing"

	"inkfuse/internal/sql"
	"inkfuse/internal/tpch"
)

var testCat = tpch.Generate(0.001, 7)

// validCorpus exercises every grammar production the frontend supports.
var validCorpus = []string{
	`select l_orderkey from lineitem order by l_orderkey`,
	`select l_orderkey, l_quantity from lineitem where l_quantity < 10 order by l_orderkey desc limit 5`,
	`select count(*) as n from lineitem`,
	`select sum(l_quantity) as s, avg(l_discount) as a, min(l_tax) as lo, max(l_tax) as hi from lineitem`,
	`select l_returnflag, count(*) as n from lineitem group by l_returnflag order by l_returnflag asc`,
	`select l_orderkey from lineitem where l_shipdate between date '1994-01-01' and date '1994-12-31' order by l_orderkey`,
	`select l_orderkey from lineitem where l_quantity not between 5 and 45 order by l_orderkey`,
	`select l_orderkey from lineitem where l_shipmode in ('AIR', 'MAIL') order by l_orderkey`,
	`select l_orderkey from lineitem where l_shipmode not in ('AIR') and not l_shipinstruct like 'DELIVER%' order by l_orderkey`,
	`select o_orderkey from orders where o_comment like '%iron%' or o_comment like '%steel%' order by o_orderkey`,
	`select o_orderkey from orders where o_comment not like '%special%' order by o_orderkey`,
	`select c_custkey from customer where c_custkey = ? order by c_custkey`,
	`select l_orderkey from lineitem where l_shipdate >= ? and l_quantity < ? order by l_orderkey`,
	`select o_orderkey from orders where o_comment like ? order by o_orderkey`,
	`select sum(case when l_quantity > 25 then l_extendedprice else 0 end) as big from lineitem`,
	`select l_shipmode, sum(case when l_quantity > 25 then 1 else 0 end) as n from lineitem group by l_shipmode order by l_shipmode`,
	`select sum(case when l_quantity > 25 then 0.5 else ? end) as w from lineitem`,
	`select l_orderkey, case when l_quantity > 25 then 'big' else 'small' end as size from lineitem order by l_orderkey`,
	`select o_orderpriority, count(*) as n from orders
	   where exists (select l_orderkey from lineitem where l_orderkey = o_orderkey)
	   group by o_orderpriority order by o_orderpriority`,
	`select o_orderpriority, count(*) as n from orders
	   where not exists (select l_orderkey from lineitem where l_orderkey = o_orderkey and l_quantity > 49)
	   group by o_orderpriority order by o_orderpriority`,
	`select big, count(*) as n from (select o_custkey, sum(o_orderkey) as big from orders group by o_custkey) as t
	   group by big order by n desc, big limit 3`,
	`select c.c_custkey from customer as c where c.c_custkey < 100 order by c_custkey`,
	`select o_custkey, o_orderkey from customer join orders on c_custkey = o_custkey order by o_orderkey`,
	`select c_custkey, o_orderkey from customer left outer join orders on c_custkey = o_custkey order by c_custkey, o_orderkey`,
	`select l_orderkey, o_orderpriority from (orders join lineitem on o_orderkey = l_orderkey) where l_quantity < 2 order by l_orderkey`,
	`-- leading comment
	 select l_orderkey -- trailing comment
	 from lineitem order by l_orderkey;`,
	`select l_orderkey, l_extendedprice * (1 - l_discount) as net from lineitem order by l_orderkey`,
	`select l_orderkey from lineitem where l_quantity <> 7 and l_quantity != 8 order by l_orderkey`,
	`select l_orderkey from lineitem where -5 < l_quantity order by l_orderkey`,
	`select o_comment from orders where o_comment = 'it''s' order by o_comment`,
}

// invalidCorpus pairs malformed inputs with the position and message fragment
// the typed error must carry.
var invalidCorpus = []struct {
	src       string
	line, col int
	frag      string
}{
	{`select`, 1, 7, "unexpected"},
	{`selec l_orderkey from lineitem`, 1, 1, "expected SELECT"},
	{`select * from lineitem`, 1, 8, "count(*)"},
	{`select l_orderkey lineitem`, 1, 27, "expected FROM"},
	{`select l_orderkey from`, 1, 23, "expected table name"},
	{`select l_orderkey from lineitem where`, 1, 38, "unexpected"},
	{`select l_orderkey from lineitem where l_quantity <`, 1, 51, "unexpected"},
	{"select l_orderkey\nfrom lineitem\nwhere l_quantity < $1", 3, 20, "unexpected character"},
	{`select l_orderkey from lineitem where l_comment like 7`, 1, 54, "LIKE pattern"},
	{`select l_orderkey from lineitem where l_quantity in (1, 2)`, 1, 54, "string literals only"},
	{`select l_orderkey from lineitem where l_comment = 'oops`, 1, 51, "unterminated string"},
	{`select l_orderkey from lineitem where l_quantity = 1.2.3`, 1, 52, "malformed number"},
	{`select nvl(l_orderkey, 0) as x from lineitem`, 1, 8, "unknown function"},
	{`select sum(*) as s from lineitem`, 1, 8, "requires count"},
	{`select l_orderkey from lineitem limit 0`, 1, 39, "positive integer"},
	{`select l_orderkey from lineitem limit 2.5`, 1, 39, "expected integer"},
	{`select case when 1 then 2 when 3 then 4 else 5 end as x from lineitem`, 1, 27, "multiple WHEN"},
	{`select case when l_quantity > 1 then 1 end as x from lineitem`, 1, 40, "expected ELSE"},
	{`select l_orderkey from lineitem where not`, 1, 42, "unexpected"},
	{`select l_orderkey from (select l_orderkey from lineitem)`, 1, 57, "derived table alias"},
	{`select l_orderkey from lineitem extra junk here`, 1, 39, "after statement"},
	{`select date from lineitem`, 1, 13, "expected date string"},
}

func TestParserValidCorpus(t *testing.T) {
	for _, src := range validCorpus {
		if _, err := sql.Compile(testCat, src); err != nil {
			t.Errorf("compile failed:\n%s\n%v", src, err)
		}
	}
	for name, src := range tpch.SQL {
		if _, err := sql.Compile(testCat, src); err != nil {
			t.Errorf("tpch %s failed to compile: %v", name, err)
		}
	}
}

func TestParserInvalidCorpus(t *testing.T) {
	for _, tc := range invalidCorpus {
		_, err := sql.Compile(testCat, tc.src)
		if err == nil {
			t.Errorf("no error for:\n%s", tc.src)
			continue
		}
		var pe *sql.ParseError
		if !errors.As(err, &pe) {
			t.Errorf("want *ParseError, got %T (%v) for:\n%s", err, err, tc.src)
			continue
		}
		if pe.Pos.Line != tc.line || pe.Pos.Col != tc.col {
			t.Errorf("want %d:%d, got %d:%d (%v) for:\n%s", tc.line, tc.col, pe.Pos.Line, pe.Pos.Col, err, tc.src)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("error %q does not mention %q", err.Error(), tc.frag)
		}
	}
}

// bindCorpus pairs well-formed but unbindable inputs with a message fragment;
// these must surface as *BindError, still position-carrying.
var bindCorpus = []struct {
	src, frag string
}{
	{`select x from lineitem`, `unknown column "x"`},
	{`select l_orderkey from nosuch`, `unknown table "nosuch"`},
	{`select l_orderkey from lineitem where l_quantity < 'ten'`, "string literal where"},
	{`select l_orderkey from lineitem where l_shipmode = l_quantity`, "kind mismatch"},
	{`select l_orderkey from lineitem where 1 < 2`, "references no columns"},
	{`select l_orderkey from lineitem limit 5`, "LIMIT requires ORDER BY"},
	{`select l_orderkey from lineitem, orders`, "after statement"}, // comma joins unsupported
	{`select o_custkey from customer join orders on c_custkey < o_custkey`, "column equality"},
	{`select l_quantity from lineitem group by l_returnflag`, "must appear in GROUP BY"},
	{`select sum(sum(l_quantity)) as s from lineitem`, "nested aggregate"},
	{`select sum(l_quantity) as s from lineitem order by l_tax`, "not in the select list"},
	{`select l_orderkey from lineitem where ? = ?`, "references no columns"},
	{`select l_orderkey from lineitem where l_quantity < 1 + 2`, "two literals"},
	{`select sum(case when l_quantity > 25 then ? else ? end) as n from lineitem`, "two placeholders"},
	{`select sum(case when l_quantity > 25 then 1 else 0.5 end) as n from lineitem`, "non-integer literal"},
	{`select c_custkey from customer as c join customer as c on c_custkey = c_custkey`, "duplicate table alias"},
	{`select o_orderkey from orders join orders as o2 on o_orderkey = o_orderkey`, "more than one FROM relation"},
}

func TestBindErrors(t *testing.T) {
	for _, tc := range bindCorpus {
		_, err := sql.Compile(testCat, tc.src)
		if err == nil {
			t.Errorf("no error for:\n%s", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("error %q does not mention %q for:\n%s", err.Error(), tc.frag, tc.src)
		}
		if _, ok := sql.ErrorPosition(err); !ok {
			t.Errorf("error carries no position: %v", err)
		}
	}
}

// FuzzParseSQL asserts the frontend never panics: any input either compiles
// or returns a typed, position-carrying error.
func FuzzParseSQL(f *testing.F) {
	for _, src := range validCorpus {
		f.Add(src)
	}
	for _, tc := range invalidCorpus {
		f.Add(tc.src)
	}
	for _, tc := range bindCorpus {
		f.Add(tc.src)
	}
	for _, src := range tpch.SQL {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Compile(testCat, src)
		if err != nil {
			if _, ok := sql.ErrorPosition(err); !ok {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if stmt.Fingerprint.Hex() == "" {
			t.Fatal("compiled statement without fingerprint")
		}
	})
}
