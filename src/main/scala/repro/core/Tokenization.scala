package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Cell-value tokenization strategies of §5.5 / §7.2.
  *
  *  - [[Tokenization.Simple]]   (EmbDI-S): the whole cell value is one token
  *    node ("iPad 4th 2012" → `ipad_4th_2012`).
  *  - [[Tokenization.Flatten]]  (EmbDI-F): the cell is split on whitespace and
  *    every word becomes its own token node, all connected to the same RID/CID.
  *  - [[Tokenization.Overlap]]  (EmbDI-O): cell values that occur in *both*
  *    datasets stay whole (they are the bridges between the relations);
  *    values private to one dataset are split into words.
  *
  * Also the one reader of table cells: [[dataColumns]], [[cells]] (Spark
  * passes) and [[columnValues]] (driver-side per-column readers).
  */
object Tokenization {

  sealed trait Strategy { def name: String }
  case object Simple  extends Strategy { val name = "EmbDI-S" }
  case object Flatten extends Strategy { val name = "EmbDI-F" }
  /** `shared` is the set of normalized whole-cell values present in both
    * datasets (computed once via [[sharedValues]]). */
  final case class Overlap(shared: Set[String]) extends Strategy { val name = "EmbDI-O" }

  /** Canonical form of a whole cell value: trimmed, lower-cased, inner
    * whitespace collapsed to single `_`. Numeric strings are rounded to
    * `sigFigs` significant figures per §4.1 ("numerical values are rounded
    * to a number of significant figures decided by the user"). A value
    * starting like a RID or CID name (`idx__`, `cid__`) or with the escape
    * `_` gets a leading `_`: no token poses as a RID or CID, distinct values
    * stay distinct, and the words are unchanged. */
  def normalize(raw: String, sigFigs: Int = 4): Option[String] = {
    if (raw == null) return None
    val t = raw.trim.toLowerCase
    if (t.isEmpty) None
    else Numerics.parseNumeric(t) match {
      case Some(d) => Some(Numerics.roundSig(d, sigFigs))
      case None =>
        val v = t.split("\\s+").mkString("_")
        Some(if (Seq("_", NodeNames.RidPrefix, NodeNames.CidPrefix).exists(v.startsWith)) "_" + v else v)
    }
  }

  /** Words of a (already trimmed, lower-cased) cell. */
  private def words(norm: String): Seq[String] =
    norm.split('_').toIndexedSeq.filter(_.nonEmpty)

  /** Token node names for one cell under the given strategy. */
  def tokens(raw: String, strategy: Strategy, sigFigs: Int = 4): Seq[String] =
    normalize(raw, sigFigs) match {
      case None => Seq.empty
      case Some(norm) =>
        strategy match {
          case Simple          => Seq(norm)
          case Flatten         => words(norm)
          case Overlap(shared) => if (shared.contains(norm)) Seq(norm) else words(norm)
        }
    }

  /** The data columns of a table: every column but the row id `__rid`. */
  def dataColumns(df: DataFrame): Seq[String] = df.columns.toSeq.filterNot(_ == "__rid")

  /** The table melted to one row per non-NULL cell: `(rid: long, col:
    * string, value: string)`, the value cast to string. One projection per
    * table (an `explode` over the row's column → value map, in schema
    * order), so the input is scanned once whatever its width; a table with
    * no data columns has no cells. */
  def cells(df: DataFrame): DataFrame = {
    val cols = dataColumns(df)
    val byColumn =
      if (cols.isEmpty) typedLit(Map.empty[String, String])
      else map(cols.flatMap(c => Seq(lit(c), col(c).cast("string"))): _*)
    df.select(col("__rid").cast("long").as("rid"), explode(byColumn).as(Seq("col", "value")))
      .where(col("value").isNotNull)
  }

  /** The non-NULL cell values of every data column, in schema order and row
    * order, from one `collect` of the table. Driver-side (bench-scale
    * inputs). */
  def columnValues(df: DataFrame): Seq[(String, IndexedSeq[String])] = {
    val cols = dataColumns(df)
    val rows = df.select(cols.map(col): _*).collect()
    cols.indices.map(i => cols(i) -> rows.flatMap(r => Option(r.get(i)).map(_.toString)).toIndexedSeq)
  }

  /** Normalized whole-cell values occurring in both datasets (DataFrame
    * intersection over all data columns) — the EmbDI-O bridge set and the
    * overlap statistic of Table 1. */
  def sharedValues(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   sigFigs: Int = 4): Set[String] = {
    distinctValues(spark, d1, sigFigs).intersect(distinctValues(spark, d2, sigFigs))
      .collect().map(_.getString(0)).toSet
  }

  /** Token-level shared set: token node names (under `strategy`) occurring
    * in both datasets — the walk start set for the §5.1 overlap heuristic. */
  def sharedTokens(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                   strategy: Strategy, sigFigs: Int = 4): Set[String] = {
    import spark.implicits._
    def toks(df: DataFrame): DataFrame =
      cells(df).select("value").as[String].flatMap(v => tokens(v, strategy, sigFigs)).toDF("t").distinct()
    toks(d1).intersect(toks(d2)).collect().map(_.getString(0)).toSet
  }

  /** One-column DataFrame `value` of distinct normalized cell values. */
  def distinctValues(spark: SparkSession, df: DataFrame, sigFigs: Int = 4): DataFrame = {
    import spark.implicits._
    cells(df).select("value").as[String].flatMap(v => normalize(v, sigFigs)).toDF("value").distinct()
  }
}
