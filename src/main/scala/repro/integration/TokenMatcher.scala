package repro.integration

import org.apache.spark.sql.DataFrame
import repro.core.{EmbeddingModel, Tokenization}

/** Token Matching (§6/§7.2): given two *aligned* attributes, find pairs of
  * tokens that are conceptual synonyms ("Denmark" ↔ "DK"). For a token from
  * the first domain, rank all tokens by embedding distance and announce the
  * first ranked token that belongs to the second domain.
  *
  * Baseline: character-trigram Jaccard similarity (the classic string-
  * matching signal the paper compares against).
  */
object TokenMatcher {

  /** Distinct normalized tokens of one column. */
  def domain(df: DataFrame, column: String): Seq[String] =
    Tokenization.columnValues(df.select(column)).flatMap(_._2)
      .flatMap(v => Tokenization.normalize(v))
      .distinct.sorted

  /** Embedding-based matching: token in dom1 → first NN within dom2. */
  def matchByEmbedding(model: EmbeddingModel, dom1: Seq[String], dom2: Seq[String],
                       nTop: Int = 1): Seq[(String, String)] =
    dom1.flatMap { t =>
      model.nearestToWord(t, dom2.filterNot(_ == t), nTop).headOption.map(n => t -> n._1)
    }

  /** Unpadded character trigrams; strings shorter than 3 are one gram —
    * padding would fabricate overlap between e.g. "dk" and "denmark". */
  private def trigrams(s: String): Set[String] =
    if (s.length < 3) Set(s) else s.sliding(3).toSet

  /** Jaccard-of-trigrams baseline. */
  def matchByJaccard(dom1: Seq[String], dom2: Seq[String]): Seq[(String, String)] =
    dom1.flatMap { t =>
      val g = trigrams(t)
      val scored = dom2.filterNot(_ == t).map { c =>
        val h = trigrams(c)
        c -> (if (g.isEmpty && h.isEmpty) 0.0
              else g.intersect(h).size.toDouble / g.union(h).size)
      }
      scored.sortBy(-_._2).headOption.filter(_._2 > 0).map(c => t -> c._1)
    }

  def score(predicted: Seq[(String, String)], gt: Seq[(String, String)]): PRF =
    Metrics.prf(predicted.toSet, gt.toSet)
}
