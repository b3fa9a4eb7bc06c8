package tpch

// SQL holds every supported query as SQL text — the paper's eight and the
// two ExtendedQueries — and Build compiles it through internal/sql, so each
// query is declared exactly once. Join order is written explicitly (build
// side left for inner joins, outer side left for LEFT OUTER JOIN) because the
// frontend plans syntactically; the texts thereby spell out the paper's
// Umbra-style join orders.
var SQL = map[string]string{
	"q1": `
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus`,

	"q3": `
select l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       o_orderdate, o_shippriority
from customer
     join orders on c_custkey = o_custkey
     join lineitem on o_orderkey = l_orderkey
where c_mktsegment = 'BUILDING'
  and o_orderdate < date '1995-03-15'
  and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10`,

	"q4": `
select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= date '1993-07-01'
  and o_orderdate < date '1993-10-01'
  and exists (
    select l_orderkey from lineitem
    where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
group by o_orderpriority
order by o_orderpriority`,

	"q5": `
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from supplier join (
       region
       join nation on r_regionkey = n_regionkey
       join customer on n_nationkey = c_nationkey
       join orders on c_custkey = o_custkey
       join lineitem on o_orderkey = l_orderkey
     ) on s_suppkey = l_suppkey and s_nationkey = c_nationkey
where r_name = 'ASIA'
  and o_orderdate >= date '1994-01-01'
  and o_orderdate < date '1995-01-01'
group by n_name
order by revenue desc`,

	"q6": `
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01'
  and l_shipdate < date '1995-01-01'
  and l_discount >= 0.05 and l_discount <= 0.07
  and l_quantity < 24`,

	"q13": `
select c_count, count(*) as custdist
from (
  select c_custkey, count(o_orderkey) as c_count
  from customer left outer join orders
       on c_custkey = o_custkey and o_comment not like '%special%requests%'
  group by c_custkey
) as pc
group by c_count
order by custdist desc, c_count desc`,

	"q14": `
select 100 * sum(case when p_type like 'PROMO%'
                      then l_extendedprice * (1 - l_discount)
                      else 0 end)
           / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from part join lineitem on p_partkey = l_partkey
where l_shipdate >= date '1995-09-01'
  and l_shipdate < date '1995-10-01'`,

	"q19": `
select sum(l_extendedprice * (1 - l_discount)) as revenue
from part join lineitem on p_partkey = l_partkey
where l_shipinstruct = 'DELIVER IN PERSON'
  and l_shipmode in ('AIR', 'AIR REG')
  and ((p_brand = 'Brand#12'
        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        and l_quantity >= 1 and l_quantity <= 11
        and p_size >= 1 and p_size <= 5)
    or (p_brand = 'Brand#23'
        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        and l_quantity >= 10 and l_quantity <= 20
        and p_size >= 1 and p_size <= 10)
    or (p_brand = 'Brand#34'
        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        and l_quantity >= 20 and l_quantity <= 30
        and p_size >= 1 and p_size <= 15))`,

	"q10": `
select o_custkey, n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from nation
     join customer on n_nationkey = c_nationkey
     join orders on c_custkey = o_custkey
     join lineitem on o_orderkey = l_orderkey
where o_orderdate >= date '1993-10-01'
  and o_orderdate < date '1994-01-01'
  and l_returnflag = 'R'
group by o_custkey, n_name
order by revenue desc
limit 20`,

	"q12": `
select l_shipmode,
       sum(case when o_orderpriority in ('1-URGENT', '2-HIGH')
                then 1 else 0 end) as high_line_count,
       sum(case when o_orderpriority not in ('1-URGENT', '2-HIGH')
                then 1 else 0 end) as low_line_count
from orders join lineitem on o_orderkey = l_orderkey
where l_shipmode in ('MAIL', 'SHIP')
  and l_commitdate < l_receiptdate
  and l_shipdate < l_commitdate
  and l_receiptdate >= date '1994-01-01'
  and l_receiptdate < date '1995-01-01'
group by l_shipmode
order by l_shipmode`,
}
