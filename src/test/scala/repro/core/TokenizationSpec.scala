package repro.core

import repro.SparkSpec
import repro.Oracle

import scala.util.Random

class TokenizationSpec extends SparkSpec {

  import Tokenization._

  test("normalize trims and lowercases") {
    assert(normalize("  Hello World  ").contains("hello_world"))
  }

  test("normalize collapses internal whitespace") {
    assert(normalize("a  b\t c").contains("a_b_c"))
  }

  test("normalize returns None for null") { assert(normalize(null).isEmpty) }

  test("normalize returns None for empty and blank strings") {
    assert(normalize("").isEmpty)
    assert(normalize("   ").isEmpty)
  }

  test("normalize rounds numeric strings to significant figures") {
    assert(normalize("123456", 4).contains("123500"))
    assert(normalize("3.14159", 3).contains("3.14"))
  }

  test("normalize keeps integers integral") {
    assert(normalize("2012").contains("2012"))
  }

  test("normalize leaves formatted strings categorical") {
    assert(normalize("555-0123").contains("555-0123"))
  }

  test("Simple keeps a multi-word cell as one token") {
    assert(tokens("iPad 4th 2012", Simple) == Seq("ipad_4th_2012"))
  }

  test("Flatten splits a multi-word cell into word tokens") {
    assert(tokens("iPad 4th Gen", Flatten) == Seq("ipad", "4th", "gen"))
  }

  test("Flatten of single word equals Simple") {
    assert(tokens("apple", Flatten) == tokens("apple", Simple))
  }

  test("Overlap keeps shared values whole") {
    val st = Overlap(Set("ipad_4th"))
    assert(tokens("iPad 4th", st) == Seq("ipad_4th"))
  }

  test("Overlap splits non-shared values") {
    val st = Overlap(Set("something_else"))
    assert(tokens("iPad 4th", st) == Seq("ipad", "4th"))
  }

  test("tokens of null cell is empty") {
    assert(tokens(null, Simple).isEmpty)
    assert(tokens(null, Flatten).isEmpty)
  }

  test("numeric cells produce one token under every strategy") {
    Seq(Simple, Flatten, Overlap(Set.empty[String])).foreach { st =>
      assert(tokens("42.5", st) == Seq("42.5"))
    }
  }

  test("normalize is idempotent (property)") {
    val rng = new Random(0)
    (0 until 200).foreach { _ =>
      val s = Random.alphanumeric.take(rng.nextInt(12)).mkString
      normalize(s).foreach { n =>
        assert(normalize(n).contains(n), s"input '$s' normalized '$n'")
      }
    }
  }

  test("Flatten tokens never contain whitespace (property)") {
    val rng = new Random(1)
    (0 until 200).foreach { _ =>
      val ws = Seq.fill(1 + rng.nextInt(4))(
        (0 until 1 + rng.nextInt(6)).map(_ => ('a' + rng.nextInt(26)).toChar).mkString)
      val toks = tokens(ws.mkString(" "), Flatten)
      assert(toks.forall(t => !t.contains(" ")))
      assert(toks.nonEmpty)
    }
  }

  test("sharedValues finds the intersection of two datasets") {
    import spark.implicits._
    val d1 = Seq((0L, "Apple", "iPad 4th"), (1L, "Samsung", "Galaxy"))
      .toDF("__rid", "maker", "product")
    val d2 = Seq((2L, "Apple", "MacBook"), (3L, "Sony", "Bravia"))
      .toDF("__rid", "maker", "product")
    assert(Tokenization.sharedValues(spark, d1, d2) == Set("apple"))
  }

  test("distinctValues matches a DuckDB oracle count") {
    import spark.implicits._
    val d = Seq((0L, "Alpha", "x"), (1L, "beta", "y"), (2L, "ALPHA", "y"))
      .toDF("__rid", "a", "b")
    val got = Tokenization.distinctValues(spark, d)
    // alpha, beta, x, y → lowercased dedup
    Oracle.assertEquivalent(
      got.selectExpr("count(*) as n"),
      "SELECT count(*) as n FROM (SELECT DISTINCT lower(a) FROM " +
        "(SELECT a FROM t UNION ALL SELECT b FROM t))",
      "t" -> d.selectExpr("a", "b"))
  }

  test("distinctValues drops nulls") {
    import spark.implicits._
    val d = Seq((0L, Some("x"), None: Option[String]), (1L, None, Some("y")))
      .toDF("__rid", "a", "b")
    val vals = Tokenization.distinctValues(spark, d).collect().map(_.getString(0)).toSet
    assert(vals == Set("x", "y"))
  }

  test("cells melts a table to one row per non-NULL cell (DuckDB UNPIVOT oracle)") {
    import spark.implicits._
    val d = Seq((0L, Some("Alpha"), None: Option[String], Some("x")),
                (1L, None, Some("beta gamma"), Some("y")),
                (2L, None, None, None))
      .toDF("__rid", "a", "b", "c")
    val got = Tokenization.cells(d)
    assert(got.schema.map(f => f.name -> f.dataType.simpleString) ==
      Seq("rid" -> "bigint", "col" -> "string", "value" -> "string"))
    Oracle.assertEquivalent(got,
      "SELECT __rid AS rid, name AS col, val AS value FROM " +
        "(UNPIVOT t ON COLUMNS(* EXCLUDE (__rid)) INTO NAME name VALUE val)",
      "t" -> d)
  }

  test("cells of a table with only __rid is empty, with the same schema") {
    import spark.implicits._
    val ridOnly = Seq(0L, 1L).toDF("__rid")
    val got = Tokenization.cells(ridOnly)
    def fields(df: org.apache.spark.sql.DataFrame) = df.schema.map(f => f.name -> f.dataType)
    assert(fields(got) == fields(Tokenization.cells(Seq((0L, "v")).toDF("__rid", "a"))))
    assert(got.isEmpty)
    assert(Tokenization.columnValues(ridOnly).isEmpty)
  }

  test("cells skips an all-NULL column, typed or untyped") {
    import spark.implicits._
    val d = Seq((0L, "a", None: Option[String]), (1L, "b", None)).toDF("__rid", "x", "y")
      .withColumn("z", org.apache.spark.sql.functions.lit(null))
    val got = Tokenization.cells(d).collect().map(r => (r.getLong(0), r.getString(1), r.getString(2)))
    assert(got.toSeq == Seq((0L, "x", "a"), (1L, "x", "b")))
    assert(Tokenization.columnValues(d) ==
      Seq("x" -> IndexedSeq("a", "b"), "y" -> IndexedSeq.empty, "z" -> IndexedSeq.empty))
  }

  test("columnValues keeps schema order and row order and drops NULLs") {
    import spark.implicits._
    val d = Seq((0L, Some("b"), Some(3)), (1L, None, Some(1)), (2L, Some("a"), None))
      .toDF("__rid", "s", "n")
    assert(Tokenization.columnValues(d) ==
      Seq("s" -> IndexedSeq("b", "a"), "n" -> IndexedSeq("3", "1")))
  }

  test("distinctValues, sharedValues and sharedTokens accept a table with only __rid") {
    import spark.implicits._
    val t = Seq((0L, "Apple iPad")).toDF("__rid", "a")
    val ridOnly = Seq(1L).toDF("__rid")
    assert(Tokenization.distinctValues(spark, ridOnly).isEmpty)
    assert(Tokenization.sharedValues(spark, t, ridOnly).isEmpty)
    assert(Tokenization.sharedTokens(spark, t, ridOnly, Flatten).isEmpty)
  }

  test("normalize never yields a RID or CID node name") {
    Seq("idx__1", "IDX__1", "idx__abc", "cid__1__x", "  Cid__2__Name ").foreach { raw =>
      val n = normalize(raw).get
      assert(!n.startsWith(NodeNames.RidPrefix) && !n.startsWith(NodeNames.CidPrefix), s"$raw -> $n")
      Seq(Simple, Flatten, Overlap(Set(n))).foreach { st =>
        assert(tokens(raw, st).forall(NodeNames.isToken), s"$raw under ${st.name}")
      }
    }
  }

  test("escaping reserved prefixes keeps distinct values distinct and words unchanged (property)") {
    val rng = new Random(2)
    val parts = IndexedSeq("idx", "cid", "_", "__", "1", "x", " ", "A")
    val raws = (0 until 500).map(_ => Seq.fill(1 + rng.nextInt(5))(parts(rng.nextInt(parts.size))).mkString)
    // (canonical form before escaping, raw) for every non-blank, non-numeric raw value.
    val forms = raws.map(r => r.trim.toLowerCase.split("\\s+").mkString("_") -> r)
      .filter { case (f, _) => f.nonEmpty && Numerics.parseNumeric(f).isEmpty }
    val outputs = forms.map { case (f, r) => f -> normalize(r).get }.distinct
    assert(outputs.map(_._2).distinct.size == outputs.map(_._1).distinct.size, "two forms collided")
    outputs.foreach { case (f, n) =>
      assert(!n.startsWith(NodeNames.RidPrefix) && !n.startsWith(NodeNames.CidPrefix), n)
      assert(tokens(f, Flatten) == f.split('_').toSeq.filter(_.nonEmpty), f)
    }
  }

  test("an escaped value is the same token in the shared set and in the graph") {
    import spark.implicits._
    val d1 = Seq((0L, "idx__7")).toDF("__rid", "a")
    val d2 = Seq((1L, "IDX__7")).toDF("__rid", "b")
    val shared = Tokenization.sharedValues(spark, d1, d2)
    assert(shared == Set(normalize("idx__7").get))
    val g = CompactGraph.fromEdges(TripartiteGraph.edges(spark, Seq(d1, d2), Overlap(shared)))
    assert(g.nodeIdsOfType(0).map(g.names).toSet == shared)
    assert(g.nodeIdsOfType(1).map(g.names).toSet == Set(NodeNames.rid(0), NodeNames.rid(1)))
  }
}
