package repro.integration

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{EmbeddingModel, NodeNames, Tokenization}

/** Schema Matching (§6, Algorithm 5): mutual-nearest-neighbour matching of
  * CID embeddings with candidate elimination, terminated after two sweeps
  * "to prevent false positives in the column alignment".
  */
object SchemaMatcher {

  /** Run Algorithm 5 over two CID vocabularies inside `model`.
    * Returns matched (c1, c2) node-name pairs. */
  def matchCids(model: EmbeddingModel, cids1: Seq[String], cids2: Seq[String],
                maxIterations: Int = 2): Seq[(String, String)] =
    mutualMatch(
      sims = crossSims(model, cids1, cids2),
      left = cids1.filter(model.contains),
      right = cids2.filter(model.contains),
      maxIterations = maxIterations,
      candidateCap = Int.MaxValue,
    )

  /** Cosine-similarity table for all cross pairs present in the model. */
  private def crossSims(model: EmbeddingModel, left: Seq[String],
                        right: Seq[String]): Map[(String, String), Double] =
    (for {
      a <- left; va <- model.vector(a).toSeq
      b <- right; vb <- model.vector(b).toSeq
    } yield (a, b) -> model.cosine(va, vb)).toMap

  /** The shared mutual-matching engine used by Algorithms 5 and 6.
    *
    * Each element keeps a descending candidate list (capped at
    * `candidateCap` — Algorithm 6's `n_top`). Per sweep, every unmatched
    * left element proposes to its current best candidate; if the candidate's
    * own current best is the proposer, the pair is matched and removed,
    * otherwise the two drop each other from their lists (Algorithm 5 lines
    * 13–14). Sweeping stops after `maxIterations` or when no candidates
    * remain. */
  private[repro] def mutualMatch(
      sims: Map[(String, String), Double],
      left: Seq[String], right: Seq[String],
      maxIterations: Int,
      candidateCap: Int): Seq[(String, String)] = {

    import scala.collection.mutable
    val candL = mutable.LinkedHashMap.empty[String, mutable.ArrayDeque[String]]
    val candR = mutable.LinkedHashMap.empty[String, mutable.ArrayDeque[String]]
    left.foreach { a =>
      val cs = right.flatMap(b => sims.get((a, b)).map(b -> _)).sortBy(-_._2)
        .take(candidateCap).map(_._1)
      candL(a) = mutable.ArrayDeque.from(cs)
    }
    right.foreach { b =>
      val cs = left.flatMap(a => sims.get((a, b)).map(a -> _)).sortBy(-_._2)
        .take(candidateCap).map(_._1)
      candR(b) = mutable.ArrayDeque.from(cs)
    }

    val matched = mutable.ArrayBuffer.empty[(String, String)]
    val doneL = mutable.Set.empty[String]
    val doneR = mutable.Set.empty[String]

    var iter = 0
    var progress = true
    while (iter < maxIterations && progress) {
      progress = false
      for (a <- left if !doneL(a)) {
        val cl = candL(a)
        cl.headOption match {
          case None => // exhausted — drops out of T
          case Some(b) if doneR(b) =>
            cl.removeHead(); progress = true
          case Some(b) =>
            val back = candR(b).find(x => !doneL(x))
            if (back.contains(a)) {
              matched += ((a, b)); doneL += a; doneR += b; progress = true
            } else {
              // Mutual rejection: remove each from the other's list.
              cl.removeHead()
              val i = candR(b).indexOf(a)
              if (i >= 0) candR(b).remove(i)
              progress = true
            }
        }
      }
      iter += 1
    }
    matched.toSeq
  }

  /** The `Base` schema matcher of Table 3: columns as bags of words, matched
    * by Jaccard overlap of their normalized token sets, then the same
    * mutual-matching loop. No embeddings involved. */
  def matchBase(spark: SparkSession, d1: DataFrame, d2: DataFrame,
                maxIterations: Int = 2): Seq[(String, String)] = {
    def tokenSets(df: DataFrame): Map[String, Set[String]] =
      Tokenization.columnValues(df).map { case (c, values) =>
        c -> values.flatMap(v => Tokenization.tokens(v, Tokenization.Flatten)).toSet
      }.toMap
    val t1 = tokenSets(d1); val t2 = tokenSets(d2)
    val sims = (for {
      (c1, s1) <- t1.toSeq; (c2, s2) <- t2.toSeq
      j = if (s1.isEmpty && s2.isEmpty) 0.0
          else s1.intersect(s2).size.toDouble / s1.union(s2).size
    } yield (c1, c2) -> j).toMap
    mutualMatch(sims, t1.keys.toSeq.sorted, t2.keys.toSeq.sorted, maxIterations, Int.MaxValue)
  }

  /** Convert CID-node matches back to plain column names. */
  def toColumnPairs(cidMatches: Seq[(String, String)]): Seq[(String, String)] =
    cidMatches.map { case (a, b) =>
      (a.stripPrefix(NodeNames.CidPrefix).dropWhile(_ != '_').stripPrefix("__"),
       b.stripPrefix(NodeNames.CidPrefix).dropWhile(_ != '_').stripPrefix("__"))
    }
}
