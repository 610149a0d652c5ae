package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, size, sum}
import org.apache.spark.storage.StorageLevel
import repro.baselines.{BasicEmbeddings, Harp, Node2VecEmbeddings}
import repro.core._
import repro.data.{AttrKind, Scenario, ScenarioConfig, ScenarioGen, Scenarios}
import repro.eval.QualityTests
import repro.integration.{EntityResolver, Metrics, SchemaMatcher}

/** What one op produced.
  *
  * @param outputs  deterministic results (vocabulary digest, F scores): a
  *                 traced op must reproduce the untraced op's values exactly
  * @param quality  the workload's `quality` score (see README)
  * @param phases   wall time (ms) of the end-to-end phases the op has
  * @param counts   per-layer counts, measured only on traced ops
  * @param timings  `EmbDI.Result.timings` (G/W/E ms) when the op called `EmbDI.run`
  * @param failures correctness checks that failed
  */
final case class OpOut(
    outputs: Map[String, Any],
    quality: Double,
    phases: Map[String, Double],
    counts: Map[String, Double] = Map.empty,
    timings: Option[EmbDI.Timings] = None,
    failures: Seq[String] = Seq.empty,
)

/** Every pipeline parameter the benchmark uses, pinned here rather than read
  * from the environment. `Scale` holds the per-workload input sizes. */
object Pinned {
  val walkLength = 60
  val window = 3
  val dim = 64
  val minCount = 2
  val w2vIters = 1
  val w2vPartitions = 1
  val pipelineSeed = 2020L
  val nTop = 10
  val erSweep: Seq[Int] = Seq(1, 10, 100)
  val qualityTestsPerKind = 1000
  val harpLevels = 2

  def w2v: EmbeddingTrainer.W2VConfig =
    EmbeddingTrainer.W2VConfig(dim = dim, window = window, minCount = minCount,
      maxIter = w2vIters, numPartitions = w2vPartitions, seed = pipelineSeed)

  /** The default EmbDI-O configuration for a dataset pair: §5.1 overlap
    * start, first step to a RID or CID. */
  def embdi(strategy: Tokenization.Strategy, start: Set[String], factor: Long): EmbDI.Config =
    EmbDI.Config(
      strategy = strategy,
      walk = RandomWalker.WalkConfig(walkLength = walkLength, seed = pipelineSeed,
        startStrategy = RandomWalker.OverlapTokens(start), firstStepOrCid = true),
      w2v = w2v,
      corpusFactor = factor)

  def asMap: Seq[(String, Any)] = Seq(
    "walk_length" -> walkLength, "window" -> window, "dim" -> dim, "min_count" -> minCount,
    "w2v_iters" -> w2vIters, "w2v_partitions" -> w2vPartitions,
    "pipeline_seed" -> pipelineSeed, "n_top" -> nTop, "er_sweep" -> erSweep,
    "quality_tests_per_kind" -> qualityTestsPerKind, "harp_levels" -> harpLevels)
}

/** A benchmark workload: inputs made from a seed in [[setup]], then ops run
  * back to back. [[op]] calls the public pipeline functions; with the tracer
  * enabled it calls the stage functions those functions are made of and
  * records a span around each. */
abstract class Workload(val spark: SparkSession, val tr: Tracer) {
  def setup(): Unit
  def release(): Unit
  /** Runs the program calls of one op and returns what finishes it: the
    * correctness checks and counts, which stay outside the op's timing. */
  def op(): () => OpOut
  /** The workload's inputs, for the run record. */
  def describe: Seq[(String, Any)]

  protected def nowMs: Double = System.nanoTime() / 1e6

  protected def timed[T](f: => T): (T, Double) = {
    val t0 = nowMs; val r = f; (r, nowMs - t0)
  }

  /** An input table cached as one partition, as reading a small CSV file
    * gives it. */
  protected def cache(df: DataFrame): (DataFrame, Long) = {
    val c = df.coalesce(1).persist(StorageLevel.MEMORY_ONLY)
    (c, c.count())
  }

  /** The vocabulary as a digest: equal models give equal strings. */
  protected def vocabDigest(m: EmbeddingModel): String =
    s"${m.size}:${java.util.Arrays.hashCode(m.words.asInstanceOf[Array[AnyRef]])}"
}

object Workload {

  /** Tokens in a `sentence: array<string>` corpus. */
  def tokens(corpus: DataFrame): Long =
    corpus.agg(sum(size(col("sentence")))).head().getLong(0)

  /** Non-null cells of the data columns: the graph layer's input size. */
  def cells(df: DataFrame): Long = {
    val dataCols = df.columns.filterNot(_ == "__rid")
    df.select(dataCols.map(c => org.apache.spark.sql.functions.count(col(c))): _*)
      .head().toSeq.map(_.asInstanceOf[Long]).sum
  }

  /** Token→RID plus token→CID edges the graph layer emits before dedup,
    * counted on the driver from the same tokenizer. */
  def emittedEdges(dfs: Seq[DataFrame], strategy: Tokenization.Strategy): Long =
    dfs.map { df =>
      val dataCols = df.columns.filterNot(_ == "__rid")
      df.select(dataCols.map(col): _*).collect().iterator.map { r =>
        (0 until r.length).iterator.map { i =>
          if (r.isNullAt(i)) 0L
          else 2L * Tokenization.tokens(r.get(i).toString, strategy).size
        }.sum
      }.sum
    }.sum

  /** MA/MR/MC test sets for the datasets under `strategy`. */
  def qualityTests(datasets: Seq[DataFrame], strategy: Tokenization.Strategy,
                   cfg: ScenarioConfig): Map[String, Seq[QualityTests.QTest]] = {
    val data = datasets.map(QualityTests.tokenize(_, strategy))
    def names(k: AttrKind.AttrKind) =
      cfg.columns.filter(_.kind == k).flatMap(c => Seq(c.nameIn1, c.nameIn2)).toSet
    val n = Pinned.qualityTestsPerKind
    Map(
      "MA" -> QualityTests.matchAttribute(data, n, Pinned.pipelineSeed + 1),
      "MR" -> QualityTests.matchRow(data, n, Pinned.pipelineSeed + 2),
      "MC" -> QualityTests.matchConcept(data, names(AttrKind.Maker), names(AttrKind.Title),
        strategy, n, Pinned.pipelineSeed + 3))
  }

  /** Mean pass rate over the test kinds that have tests. */
  def qualityAvg(model: EmbeddingModel, tests: Map[String, Seq[QualityTests.QTest]]): Double = {
    val kinds = Seq("MA" -> 11L, "MR" -> 12L, "MC" -> 13L).filter(k => tests(k._1).nonEmpty)
    kinds.map { case (k, s) => QualityTests.evaluate(model, tests(k), s) }.sum / kinds.size
  }

  def f1(pairs: Set[(String, String)], truth: Set[(String, String)]): Double =
    Metrics.prf(pairs, truth).f1
}

/** Helpers shared by the workloads that resolve entities. */
trait ErStages { self: Workload =>

  /** `EntityResolver.matchRids`, or with tracing on its stages: the two
    * top-k calls and the mutual matching (whose time is the span's self
    * time). */
  protected def resolve(model: EmbeddingModel, rids1: Seq[String], rids2: Seq[String],
                        nTop: Int, counts: collection.mutable.Map[String, Double])
      : Seq[(String, String)] =
    if (!tr.enabled) EntityResolver.matchRids(spark, model, rids1, rids2, nTop)
    else tr.span(s"er.ntop$nTop") {
      val vecs1 = rids1.flatMap(r => model.vector(r).map(r -> _))
      val vecs2 = rids2.flatMap(r => model.vector(r).map(r -> _))
      if (vecs1.isEmpty || vecs2.isEmpty) Seq.empty
      else {
        val top12 = tr.span("topk")(NearestNeighbors.topK(spark, vecs1, vecs2, nTop))
        val top21 = tr.span("topk")(NearestNeighbors.topK(spark, vecs2, vecs1, nTop))
        counts("topk.queries") = counts.getOrElse("topk.queries", 0.0) + vecs1.size + vecs2.size
        val sims: Map[(String, String), Double] =
          (top12.toSeq.flatMap { case (a, ns) => ns.map { case (b, s) => (a, b) -> s } } ++
           top21.toSeq.flatMap { case (b, ns) => ns.map { case (a, s) => (a, b) -> s } }).toMap
        SchemaMatcher.mutualMatch(sims, vecs1.map(_._1), vecs2.map(_._1), 10, nTop)
      }
    }

  /** Failed-check messages for an ER output: every pair must join a RID of
    * dataset 1 to a RID of dataset 2, each RID at most once. */
  protected def checkCrossDataset(pairs: Seq[(String, String)], side1: Set[String],
                                  side2: Set[String]): Seq[String] = {
    val bad = pairs.count { case (a, b) => !side1(a) || !side2(b) }
    val dup = pairs.size - pairs.map(_._1).distinct.size + pairs.size - pairs.map(_._2).distinct.size
    (if (bad > 0) Seq(s"er: $bad pairs not cross-dataset") else Nil) ++
      (if (dup > 0) Seq(s"er: $dup RIDs matched twice") else Nil)
  }
}

// ------------------------------------------------------------------ pair-im

/** The IM scenario through the full EmbDI-O path, then SM (Algorithm 5 and
  * Base), ER at n_top=10 (ground-truth-query protocol) and MA/MR/MC. */
final class PairIm(spark: SparkSession, tr: Tracer, seed: Long, cfg0: ScenarioConfig,
                   factor: Long) extends Workload(spark, tr) with ErStages {
  val cfg: ScenarioConfig = cfg0.copy(seed = seed)
  private var sc: Scenario = _
  private var d1: DataFrame = _
  private var d2: DataFrame = _
  private var n1, n2, nCells = 0L
  private var truth: Set[(String, String)] = Set.empty
  private var colTruth: Set[(String, String)] = Set.empty
  private var tests: Map[String, Seq[QualityTests.QTest]] = Map.empty

  def describe: Seq[(String, Any)] = Seq("scenario" -> cfg.shorthand, "seed" -> seed,
    "n_shared" -> cfg.nShared, "n_only1" -> cfg.nOnly1, "n_only2" -> cfg.nOnly2,
    "corpus_factor" -> factor)

  def setup(): Unit = {
    sc = ScenarioGen.generate(spark, cfg)
    val (a, na) = cache(sc.d1); val (b, nb) = cache(sc.d2)
    d1 = a; d2 = b; n1 = na; n2 = nb
    nCells = Workload.cells(d1) + Workload.cells(d2)
    truth = sc.rowMatches.collect()
      .map(r => (NodeNames.rid(r.getLong(0)), NodeNames.rid(r.getLong(1)))).toSet
    colTruth = sc.colMatches.toSet
    val shared = Tokenization.sharedValues(spark, d1, d2)
    tests = Workload.qualityTests(Seq(d1, d2), Tokenization.Overlap(shared), cfg)
  }

  def release(): Unit = { d1.unpersist(); d2.unpersist() }

  def op(): () => OpOut = {
    val counts = collection.mutable.Map.empty[String, Double]
    var timings: Option[EmbDI.Timings] = None
    var built: Option[Built] = None
    var walked: Option[(CompactGraph, RandomWalker.WalkConfig)] = None
    val t0 = nowMs
    val (model, corpusMs) = tr.span("embed") {
      if (!tr.enabled) {
        val shared = Tokenization.sharedValues(spark, d1, d2)
        val words = Tokenization.sharedTokens(spark, d1, d2, Tokenization.Flatten)
        val cfg = Pinned.embdi(Tokenization.Overlap(shared), shared ++ words, factor)
        val r = EmbDI.run(spark, Seq(d1, d2), cfg)
        timings = Some(r.timings)
        walked = Some((r.graph, cfg.walk))
        (r.model, nowMs - t0 - r.timings.trainMs)
      } else {
        val (b, ms) = timed(tr.span("corpus")(tracedCorpus()))
        built = Some(b)
        (tr.span("train")(EmbeddingTrainer.train(b.corpus, Pinned.w2v)), ms)
      }
    }
    val t1 = nowMs
    val (sm, base, byTop, qa, queries, targets) = tr.span("match") {
      val sm = tr.span("sm.cids")(SchemaMatcher.matchCids(model,
        sc.columns1.map(NodeNames.cid(1, _)), sc.columns2.map(NodeNames.cid(2, _))))
      val base = tr.span("sm.base")(SchemaMatcher.matchBase(spark, d1, d2))
      val queries = truth.toSeq.map(_._1).sortBy(NodeNames.ridValue).filter(model.contains)
      val targets = EntityResolver.ridsIn(model, n1, n1 + n2)
      val byTop = Pinned.erSweep.map(k => k -> resolve(model, queries, targets, k, counts))
      val qa = tr.span("quality.eval")(Workload.qualityAvg(model, tests))
      (SchemaMatcher.toColumnPairs(sm).toSet, base.toSet, byTop, qa, queries, targets)
    }
    val t2 = nowMs
    () => {
      var failures = Seq.empty[String]
      built.foreach { b =>
        counts ++= Stages.graphCounts(b.graph, b.edges, Seq(d1, d2), b.strategy, nCells)
        counts ++= Stages.walkCounts(b.corpus, b.graph, b.walk)
        counts("train.tokens") = counts("walk.tokens")
        counts("train.vocab") = model.size
        counts("train.rid_coverage") = model.words.count(NodeNames.isRid).toDouble / (n1 + n2)
        failures ++= Checks.walks(b.graph, b.corpus, seed)
        b.corpus.unpersist()
      }
      walked.foreach { case (g, w) => failures ++= Checks.uniformWalks(spark, g, w, seed) }
      val smF = Workload.f1(sm, colTruth)
      val f = byTop.map { case (k, pairs) => k -> Workload.f1(pairs.toSet, truth) }.toMap
      val (side1, side2) = ((0L until n1).map(NodeNames.rid).toSet, (n1 until n1 + n2).map(NodeNames.rid).toSet)
      failures ++= byTop.flatMap { case (_, pairs) => checkCrossDataset(pairs, side1, side2) }
      failures ++= Checks.topK(spark, model, queries, targets, Pinned.nTop, seed)
      counts("er.pairs") = byTop.map(_._2.size).sum
      f.foreach { case (k, v) => counts(s"er.f1.ntop$k") = v }
      OpOut(
        outputs = Map("vocab" -> vocabDigest(model), "sm_f1" -> smF,
          "sm_base_f1" -> Workload.f1(base, colTruth), "quality_avg" -> qa) ++
          byTop.map { case (k, p) => s"er_pairs.ntop$k" -> p.size } ++
          f.map { case (k, v) => s"er_f1.ntop$k" -> v },
        quality = qa,
        phases = Map("corpus" -> corpusMs, "embed" -> (t1 - t0), "match" -> (t2 - t1)),
        counts = counts.toMap ++ Map("sm_f1" -> smF, "er_f1" -> f(Pinned.nTop), "quality_avg" -> qa),
        timings = timings,
        failures = failures)
    }
  }

  /** The stages `EmbDI.run` is made of, after the shared-set passes. */
  private def tracedCorpus(): Built = {
    val (shared, words) = tr.span("tokenize.shared") {
      (Tokenization.sharedValues(spark, d1, d2),
       Tokenization.sharedTokens(spark, d1, d2, Tokenization.Flatten))
    }
    val cfg = Pinned.embdi(Tokenization.Overlap(shared), shared ++ words, factor)
    val (graph, nDistinct, edges) = Stages.graph(spark, tr, Seq(d1, d2), cfg.strategy)
    val walkCfg = cfg.walk.copy(corpusTokens =
      RandomWalker.corpusTokensRule(nDistinct, n1 + n2, cfg.corpusFactor))
    Built(graph, edges, cfg.strategy, walkCfg, Stages.walk(spark, tr, graph, walkCfg))
  }
}

/** A graph and the corpus walked on it, kept for the traced op's counts. */
final case class Built(graph: CompactGraph, edges: Long, strategy: Tokenization.Strategy,
                       walk: RandomWalker.WalkConfig, corpus: DataFrame)

/** Stage sequences shared by the workloads, each stage in its own span. */
object Stages {

  /** Edges → CSR → corpus-rule statistics (the order `EmbDI.run` uses).
    * Returns the graph, the number of distinct values and, when tracing,
    * the number of distinct edges. */
  def graph(spark: SparkSession, tr: Tracer, datasets: Seq[DataFrame],
            strategy: Tokenization.Strategy): (CompactGraph, Long, Long) = {
    val (edges, nEdges) = tr.span("graph.edges") {
      val e = TripartiteGraph.edges(spark, datasets, strategy).persist(StorageLevel.MEMORY_AND_DISK)
      (e, if (tr.enabled) e.count() else -1L)
    }
    val g = tr.span("csr.build")(CompactGraph.fromEdges(edges))
    edges.unpersist()
    val nDistinct = tr.span("tokenize.distinct") {
      datasets.map(d => Tokenization.distinctValues(spark, d)).reduce(_ union _).distinct().count()
    }
    (g, nDistinct, nEdges)
  }

  /** `RandomWalker.corpus`, materialised the way `EmbDI.run` does it. */
  def walk(spark: SparkSession, tr: Tracer, g: CompactGraph,
           cfg: RandomWalker.WalkConfig): DataFrame =
    tr.span("walk") {
      val c = RandomWalker.corpus(spark, g, cfg).persist(StorageLevel.MEMORY_AND_DISK)
      c.count(); c
    }

  /** Graph and CSR counts of a traced op, measured after its spans. */
  def graphCounts(g: CompactGraph, edges: Long, datasets: Seq[DataFrame],
                  strategy: Tokenization.Strategy, cells: Long): Map[String, Double] =
    Map(
      "graph.cells" -> cells,
      "graph.edges" -> edges,
      "graph.dedup_ratio" -> edges.toDouble / Workload.emittedEdges(datasets, strategy),
      "csr.nodes.token" -> g.types.count(_ == 0),
      "csr.nodes.rid" -> g.types.count(_ == 1),
      "csr.nodes.cid" -> g.types.count(_ == 2))

  /** Walk counts of a materialised `RandomWalker` corpus. */
  def walkCounts(corpus: DataFrame, g: CompactGraph, cfg: RandomWalker.WalkConfig): Map[String, Double] = {
    val tokens = Workload.tokens(corpus).toDouble
    Map(
      "walk.tokens" -> tokens,
      "walk.start_nodes" -> RandomWalker.startNodes(g, cfg.startStrategy).length,
      "walk.rule_ratio" -> tokens / cfg.corpusTokens)
  }

  /** `Node2VecWalker.corpus`, materialised. */
  def n2vWalk(spark: SparkSession, tr: Tracer, g: CompactGraph,
              cfg: Node2VecWalker.N2VConfig): DataFrame =
    tr.span("n2v.walk") {
      val c = Node2VecWalker.corpus(spark, g, cfg).persist(StorageLevel.MEMORY_AND_DISK)
      c.count(); c
    }
}

// -------------------------------------------------------------- baselines-fz

/** Node2Vec, HARP and Basic builds on FZ at the same token budget, then
  * MA/MR/MC on each model. */
final class BaselinesFz(spark: SparkSession, tr: Tracer, seed: Long, cfg0: ScenarioConfig,
                        factor: Long) extends Workload(spark, tr) {
  val cfg: ScenarioConfig = cfg0.copy(seed = seed)
  private var d1: DataFrame = _
  private var d2: DataFrame = _
  private var nRows, nCells = 0L
  private var tests: Map[String, Seq[QualityTests.QTest]] = Map.empty

  def describe: Seq[(String, Any)] = Seq("scenario" -> cfg.shorthand, "seed" -> seed,
    "corpus_factor" -> factor, "harp_levels" -> Pinned.harpLevels)

  def setup(): Unit = {
    val sc = ScenarioGen.generate(spark, cfg)
    val (a, na) = cache(sc.d1); val (b, nb) = cache(sc.d2)
    d1 = a; d2 = b; nRows = na + nb
    nCells = Workload.cells(d1) + Workload.cells(d2)
    tests = Workload.qualityTests(Seq(d1, d2),
      Tokenization.Overlap(Tokenization.sharedValues(spark, d1, d2)), cfg)
  }

  def release(): Unit = { d1.unpersist(); d2.unpersist() }

  def op(): () => OpOut = {
    val counts = collection.mutable.Map.empty[String, Double]
    val datasets = Seq(d1, d2)
    var traced: Option[(CompactGraph, Long, Tokenization.Strategy, DataFrame)] = None
    var walked: Option[(CompactGraph, Node2VecWalker.N2VConfig)] = None
    val (models, embedMs) = timed(tr.span("embed") {
      val shared = tr.span("tokenize.shared")(Tokenization.sharedValues(spark, d1, d2))
      val strategy = Tokenization.Overlap(shared)
      val (graph, nDistinct, edges) = Stages.graph(spark, tr, datasets, strategy)
      val budget = RandomWalker.corpusTokensRule(nDistinct, nRows, factor)
      val n2vCfg = Node2VecWalker.N2VConfig(walkLength = Pinned.walkLength,
        corpusTokens = budget, seed = Pinned.pipelineSeed)
      val n2v =
        if (!tr.enabled) {
          walked = Some((graph, n2vCfg))
          Node2VecEmbeddings.train(spark, graph, Node2VecEmbeddings.Config(n2vCfg, Pinned.w2v)).model
        } else {
          val c = Stages.n2vWalk(spark, tr, graph, n2vCfg)
          traced = Some((graph, edges, strategy, c))
          tr.span("train")(EmbeddingTrainer.train(c, Pinned.w2v))
        }
      val harp = tr.span("harp")(Harp.train(spark, graph, Harp.Config(levels = Pinned.harpLevels,
        corpusTokens = budget, walkLength = Pinned.walkLength, w2v = Pinned.w2v,
        seed = Pinned.pipelineSeed))).model
      val basic = tr.span("basic")(BasicEmbeddings.train(spark, datasets, BasicEmbeddings.Config(
        corpusTokens = budget, strategy = strategy, w2v = Pinned.w2v, seed = Pinned.pipelineSeed)))
      Seq("node2vec" -> n2v, "harp" -> harp, "basic" -> basic)
    })
    val (scores, matchMs) = timed(tr.span("match") {
      tr.span("quality.eval")(models.map { case (k, m) => k -> Workload.qualityAvg(m, tests) })
    })
    () => {
      val avg = scores.map(_._2).sum / scores.size
      var failures = Seq.empty[String]
      traced.foreach { case (graph, edges, strategy, corpus) =>
        val n2v = models.head._2
        val tokens = Workload.tokens(corpus).toDouble
        counts ++= Stages.graphCounts(graph, edges, datasets, strategy, nCells)
        counts("n2v.tokens") = tokens
        counts("train.tokens") = tokens
        counts("train.vocab") = n2v.size
        counts("train.rid_coverage") = n2v.words.count(NodeNames.isRid).toDouble / nRows
        failures ++= Checks.walks(graph, corpus, seed)
        corpus.unpersist()
      }
      walked.foreach { case (g, c) => failures ++= Checks.n2vWalks(spark, g, c, seed) }
      counts("quality_avg") = avg
      OpOut(
        outputs = models.map { case (k, m) => s"vocab.$k" -> vocabDigest(m) }.toMap ++
          scores.map { case (k, q) => s"quality.$k" -> q },
        quality = avg,
        phases = Map("embed" -> embedMs, "match" -> matchMs),
        counts = counts.toMap,
        failures = failures)
    }
  }
}

object Workloads {
  val names: Seq[String] = Seq("pair-im", "baselines-fz")

  /** Inputs of the timed runs, or the tiny ones of the smoke test. */
  def make(name: String, spark: SparkSession, tr: Tracer, seed: Long, smoke: Boolean): Workload =
    (name, smoke) match {
      case ("pair-im", false) => new PairIm(spark, tr, seed, Scale.pairIm, Scale.pairImFactor)
      case ("pair-im", true)  => new PairIm(spark, tr, seed, Scenarios.tiny, 20L)
      case ("baselines-fz", false) => new BaselinesFz(spark, tr, seed, Scale.fz, Scale.fzFactor)
      case ("baselines-fz", true)  => new BaselinesFz(spark, tr, seed, Scenarios.tiny, 10L)
      case _ => throw new IllegalArgumentException(s"unknown workload: $name")
    }
}

/** Input sizes of the timed workloads. */
object Scale {
  val pairIm: ScenarioConfig = Scenarios.im.copy(nShared = 60, nOnly1 = 120, nOnly2 = 140)
  val pairImFactor = 100L
  val fz: ScenarioConfig = Scenarios.fz.copy(nShared = 36, nOnly1 = 140, nOnly2 = 74)
  val fzFactor = 25L
}
