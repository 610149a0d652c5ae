package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CompactGraph, EmbeddingModel, NearestNeighbors, Node2VecWalker, Rand, RandomWalker}

/** Correctness checks run after each op, outside its timing. Each returns
  * the messages of the checks that failed; an op with any fails. */
object Checks {

  val walkSample = 200
  val topKSample = 16

  /** Every consecutive pair in a seeded sample of walks is a CSR edge. */
  def walks(g: CompactGraph, corpus: DataFrame, seed: Long, fraction: Double = 0.05): Seq[String] = {
    val sample = corpus.sample(withReplacement = false, fraction, seed).limit(walkSample)
      .collect().map(_.getSeq[String](0))
    val idx = g.index
    val bad = sample.count { w =>
      w.iterator.sliding(2).exists {
        case Seq(a, b) => !(idx.contains(a) && idx.contains(b) && g.hasEdge(idx(a), idx(b)))
        case _ => false
      }
    }
    (if (sample.isEmpty) Seq("walks: empty sample") else Nil) ++
      (if (bad > 0) Seq(s"walks: $bad of ${sample.length} sampled walks leave the graph") else Nil)
  }

  /** [[walks]] on about [[walkSample]] fresh walks that `RandomWalker` takes
    * on `g` with the op's walk config: the check of an op that does not keep
    * its corpus. */
  def uniformWalks(spark: SparkSession, g: CompactGraph, cfg: RandomWalker.WalkConfig,
                   seed: Long): Seq[String] =
    walks(g, RandomWalker.corpus(spark, g, cfg.copy(corpusTokens = walkSample.toLong * cfg.walkLength)),
      seed, fraction = 1.0)

  /** [[uniformWalks]] for `Node2VecWalker`. */
  def n2vWalks(spark: SparkSession, g: CompactGraph, cfg: Node2VecWalker.N2VConfig,
               seed: Long): Seq[String] =
    walks(g, Node2VecWalker.corpus(spark, g, cfg.copy(corpusTokens = walkSample.toLong * cfg.walkLength)),
      seed, fraction = 1.0)

  /** `NearestNeighbors.topK` on a seeded sample of queries equals a local
    * brute-force dot-product ranking (scores compared, so ties may reorder). */
  def topK(spark: SparkSession, model: EmbeddingModel, queries: Seq[String],
           targets: Seq[String], k: Int, seed: Long): Seq[String] = {
    val rng = Rand.of(seed, 0x709L)
    val qs = rng.shuffle(queries.filter(model.contains)).take(topKSample)
    val ts = targets.filter(model.contains).map(t => t -> model.vector(t).get)
    if (qs.isEmpty || ts.isEmpty) return Seq("topk: nothing to check")
    val got = NearestNeighbors.topK(spark, qs.map(q => q -> model.vector(q).get), ts, k)
    val bad = qs.count { q =>
      val v = model.vector(q).get
      val expect = ts.filter(_._1 != q).map { case (t, u) => EmbeddingModel.dot(v, u) }
        .sorted(Ordering[Double].reverse).take(k)
      val ranked = got.getOrElse(q, Seq.empty)
      val rescored = ranked.forall { case (t, s) => math.abs(EmbeddingModel.dot(v, model.vector(t).get) - s) < 1e-9 }
      !(rescored && ranked.size == expect.size &&
        ranked.map(_._2).zip(expect).forall { case (a, b) => math.abs(a - b) < 1e-9 })
    }
    if (bad > 0) Seq(s"topk: $bad of ${qs.size} sampled queries differ from brute force") else Nil
  }
}
