package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession
import repro.data.Scenarios

import scala.collection.mutable.ArrayBuffer

/** Benchmark entry point. One JVM runs one workload for a fixed time in a
  * closed loop (one client, ops back to back) and prints one JSON line:
  *
  * {{{
  * Main run   --workload W --seed N --seconds S --trace 0|1 --work DIR
  * Main smoke --work DIR     every workload's op path on tiny inputs, with all checks
  * Main anchor --work DIR    pair-im at the scenario's default seed vs the committed IM numbers
  * }}}
  */
object Main {

  /** Spark settings, pinned and reported with every result.
    * `spark.default.parallelism` stays unset on purpose: with it unset, a
    * `reduceByKey` such as Word2Vec's vocabulary count keeps its input's
    * partitioning, and the vocabulary order (hence the model) matches the
    * committed bench results. Two task threads: an op is mostly one
    * thread at a time, and the other cores are left to the JIT compiler and
    * the collector, which otherwise compete with the tasks while ops warm up
    * (the outputs are the same as with four). */
  def sparkConf(work: Path): Seq[(String, String)] = {
    val threads = math.min(2, Runtime.getRuntime.availableProcessors)
    Seq(
      "spark.master" -> s"local[$threads]",
      "spark.sql.shuffle.partitions" -> "8",
      // With the default 100 entries, how many of an op's 60-80 generated
      // classes Spark compiles again on every op depends on the seed (18-78 on
      // seeds 101-105: the cache is split into segments that overflow unevenly),
      // and with the JIT work each new class brings, op times then differed by
      // seed by up to 20%. With 1000, an op after the first compiles none.
      "spark.sql.codegen.cache.maxEntries" -> "1000",
      "spark.ui.enabled" -> "false",
      "spark.driver.host" -> "127.0.0.1",
      "spark.local.dir" -> work.resolve("spark-local").toString,
      "spark.sql.warehouse.dir" -> work.resolve("warehouse").toString,
    )
  }

  def main(args: Array[String]): Unit = {
    val mode = args.headOption.getOrElse("run")
    val opts = args.drop(1).grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val work = Paths.get(opts.getOrElse("work", ".perfbench-work")).toAbsolutePath
    Files.createDirectories(work)
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val conf = sparkConf(work)
    val spark = conf.foldLeft(SparkSession.builder().appName("perfbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()
    val startS = (System.currentTimeMillis() - jvmStart) / 1000.0
    val counters = new Counters(spark.sparkContext)
    val code =
      try mode match {
        case "run" =>
          val r = new Runner(spark, counters, opts("workload"), opts("seed").toLong,
            opts("seconds").toDouble, opts("trace") == "1", startS, conf)
          val (json, spans) = r.run()
          spans.foreach(s => Files.writeString(
            work.resolve(s"trace-${opts("workload")}-${opts("seed")}.json"), s))
          println(json)
          0
        case "smoke"  => smoke(spark, counters)
        case "anchor" => anchor(spark, counters)
        case other => Console.err.println(s"unknown mode: $other"); 2
      } finally spark.stop()
    sys.exit(code)
  }

  /** Every workload's op path, untraced and traced, on tiny inputs. */
  def smoke(spark: SparkSession, counters: Counters): Int = {
    val bad = Workloads.names.flatMap { name =>
      val tr = new Tracer(false, spark.sparkContext, counters)
      val w = Workloads.make(name, spark, tr, 7L, smoke = true)
      w.setup()
      val plain = w.op()()
      tr.enabled = true
      tr.beginOp(1)
      val traced = w.op()()
      val problems = plain.failures ++ traced.failures ++ Runner.diff(plain.outputs, traced.outputs) ++
        (if (tr.spans.isEmpty) Seq("traced op recorded no spans") else Nil)
      w.release()
      println(s"smoke $name: " + (if (problems.isEmpty) "ok" else problems.mkString("FAIL ", "; ", "")) +
        s"  outputs=${Json.value(plain.outputs)}")
      problems
    }
    if (bad.isEmpty) 0 else 1
  }

  /** Committed IM numbers at the scenario's default seed (table3.txt and
    * table5.txt), rounded as committed. */
  val anchorSm = 0.923
  val anchorEr = 0.534

  def anchor(spark: SparkSession, counters: Counters): Int = {
    val tr = new Tracer(false, spark.sparkContext, counters)
    val w = new PairIm(spark, tr, Scenarios.im.seed, Scenarios.im, 100L)
    w.setup()
    val out = w.op()()
    val sm = out.outputs("sm_f1").asInstanceOf[Double]
    val er = out.outputs(s"er_f1.ntop${Pinned.nTop}").asInstanceOf[Double]
    val ok = math.abs(sm - anchorSm) < 5e-4 && math.abs(er - anchorEr) < 5e-4 && out.failures.isEmpty
    println(f"anchor pair-im seed=${Scenarios.im.seed}: sm_f1=$sm%.4f (committed $anchorSm) " +
      f"er_f1=$er%.4f (committed $anchorEr) checks=${if (out.failures.isEmpty) "ok" else out.failures.mkString("; ")} " +
      (if (ok) "OK" else "MISMATCH"))
    if (ok) 0 else 1
  }
}

/** One timed run of one workload. */
final class Runner(spark: SparkSession, counters: Counters, name: String, seed: Long,
                   seconds: Double, trace: Boolean, startS: Double,
                   conf: Seq[(String, String)]) {

  /** Set-ups per run; `setup_s` takes their median. */
  val setupRepeats = 3
  /** Ops run before the measured ones; their time counts toward `setup_s`. */
  val warmupOps = 1
  /** Ops a run measures at least, however short `--seconds` is. */
  val minMeasuredOps = 3

  private val tr = new Tracer(false, spark.sparkContext, counters)
  private val wl = Workloads.make(name, spark, tr, seed, smoke = false)
  private var attempted = 0
  private var failed = 0
  private val problems = ArrayBuffer.empty[String]
  /** Per op in order, the warm-up op first: wall time, allocation, GC time,
    * process CPU time, JIT compile time and classes Spark SQL compiled. */
  private val opMs, opAllocMb, opGcMs, opCpuMs, opJitMs, opCodegens = ArrayBuffer.empty[Double]
  /** Traced run: median self time (ms) of each span name over the traced ops. */
  private var selfMs = Map.empty[String, Double]

  private def nowMs = System.nanoTime() / 1e6

  /** One op: its wall time and allocation (program calls only), then its
    * checks. An op that throws or fails a check counts as failed. */
  private final case class Attempt(ms: Double, allocBytes: Double, out: Option[OpOut])

  private def attempt(reference: Option[Map[String, Any]]): Attempt = {
    attempted += 1
    val a0 = counters.allocatedBytes
    val g0 = counters.gcMs
    val c0 = counters.cpuNs
    val j0 = counters.jitMs
    val k0 = counters.codegens
    val t0 = nowMs
    try {
      val finish = wl.op()
      val ms = nowMs - t0
      opMs += ms
      opGcMs += (counters.gcMs - g0).toDouble
      opCpuMs += (counters.cpuNs - c0) / 1e6
      opJitMs += (counters.jitMs - j0).toDouble
      opCodegens += (counters.codegens - k0).toDouble
      val alloc = (counters.allocatedBytes - a0).toDouble
      opAllocMb += alloc / 1e6
      val out = finish()
      val issues = out.failures ++ reference.toSeq.flatMap(Runner.diff(_, out.outputs))
      if (issues.nonEmpty) { failed += 1; problems ++= issues }
      Attempt(ms, alloc, Some(out))
    } catch {
      case e: Exception =>
        failed += 1; problems += s"op threw ${e.getClass.getSimpleName}: ${e.getMessage}"
        Attempt(nowMs - t0, 0, None)
    }
  }

  /** Returns the result line and, for a traced run, the spans. */
  def run(): (String, Option[String]) = {
    val prepMs = (1 to (if (trace) 1 else setupRepeats)).map { i =>
      val t0 = nowMs
      wl.setup()
      val ms = nowMs - t0
      if (i < setupRepeats && !trace) wl.release()
      ms
    }
    val w0 = nowMs
    val reference = attempt(None).out.map(_.outputs)
    (2 to warmupOps).foreach(_ => attempt(reference))
    val warmMs = nowMs - w0
    val setupS = startS + (Runner.median(prepMs) + warmMs) / 1000
    val metrics = if (trace) traced(reference) else untraced(reference, setupS)
    val record = Seq(
      "workload" -> name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "inputs" -> wl.describe.toMap, "pinned" -> Pinned.asMap.toMap,
      "spark" -> (conf.toMap + ("defaultParallelism" -> spark.sparkContext.defaultParallelism.toString)),
      "jvm_start_s" -> startS, "setup_prep_ms" -> prepMs, "warmup_ms" -> warmMs,
      "op_ms" -> opMs.map(_.round), "op_alloc_mb" -> opAllocMb.map(_.round),
      "op_gc_ms" -> opGcMs.map(_.round), "op_cpu_ms" -> opCpuMs.map(_.round),
      "op_jit_ms" -> opJitMs.map(_.round), "op_codegens" -> opCodegens.map(_.round), "self_ms" -> selfMs,
      "problems" -> problems.distinct.take(20))
    val json = Json.obj(Seq(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics, "record" -> record.toMap))
    (json, if (trace) Some(tr.toJson) else None)
  }

  private def untraced(reference: Option[Map[String, Any]], setupS: Double): Map[String, Double] = {
    val wall, quality = ArrayBuffer.empty[Double]
    val t0 = nowMs
    val before = attempted
    while (nowMs - t0 < seconds * 1000 || attempted - before < minMeasuredOps) {
      val a = attempt(reference)
      a.out.foreach { o => wall += a.ms; quality += o.quality }
    }
    Map(
      "op_s" -> Runner.median(wall) / 1000,
      "setup_s" -> setupS,
      "quality" -> Runner.median(quality))
  }

  /** Alternates untraced and traced ops; per-layer metrics are medians over
    * the traced ops, overheads compare the two. */
  private def traced(reference: Option[Map[String, Any]]): Map[String, Double] = {
    val plainWall, plainAlloc, tracedWall = ArrayBuffer.empty[Double]
    val plainPhases, tracedPhases = ArrayBuffer.empty[Map[String, Double]]
    val timings = ArrayBuffer.empty[repro.core.EmbDI.Timings]
    val layers = ArrayBuffer.empty[Map[String, Double]]
    val tracedIds = ArrayBuffer.empty[Int]
    val t0 = nowMs
    def plainOp(): Unit = {
      tr.enabled = false
      val a = attempt(reference)
      a.out.foreach { o =>
        plainWall += a.ms; plainAlloc += a.allocBytes; plainPhases += o.phases; timings ++= o.timings
      }
    }
    def tracedOp(opId: Int): Unit = {
      tr.enabled = true
      tr.beginOp(opId)
      val a = attempt(reference)
      tr.enabled = false
      counters.quiesce()
      a.out.foreach { o =>
        tracedWall += a.ms
        tracedIds += opId
        tracedPhases += Runner.phases.map(p => p -> tr.total(opId, p)).toMap
        layers += layerMetrics(opId, o)
      }
    }
    // Pairs alternate which op runs first, so the ops' warm-up drift does
    // not read as tracing overhead.
    var opId = 0
    while (nowMs - t0 < seconds * 1000 || opId == 0) {
      opId += 1
      if (opId % 2 == 1) { plainOp(); tracedOp(opId) } else { tracedOp(opId); plainOp() }
    }
    val med = Runner.medians(layers.toSeq)
    selfMs = tr.spans.map(_.name).distinct.map(n => n -> Runner.median(tracedIds.map(tr.selfMs(_, n)))).toMap
    def ratio(a: Double, b: Double) = if (b > 0) a / b else 0.0
    def phaseOverhead(p: String) = {
      val plain = plainPhases.flatMap(_.get(p))
      if (plain.isEmpty) 0.0 else ratio(Runner.median(tracedPhases.map(_(p))), Runner.median(plain))
    }
    def gwe(f: repro.core.EmbDI.Timings => Long) = Runner.median(timings.map(f(_).toDouble))
    med ++ Runner.phases.map(p => s"trace.overhead.$p" -> phaseOverhead(p)) ++ Map(
      "trace.overhead.op" -> ratio(Runner.median(tracedWall), Runner.median(plainWall)),
      "jvm.alloc_gb" -> Runner.median(plainAlloc) / 1e9,
      "crosscheck.g_ratio" -> ratio(med("graph.edges_ms") + med("csr.build_ms"), gwe(_.graphMs)),
      "crosscheck.w_ratio" -> ratio(med("walk.ms"), gwe(_.walkMs)),
      "crosscheck.e_ratio" -> ratio(med("train.ms"), gwe(_.trainMs)))
  }

  private def layerMetrics(opId: Int, o: OpOut): Map[String, Double] = {
    val times = Runner.spanTimes.map { case (m, s) => m -> tr.total(opId, s) }.toMap
    val c = Runner.countNames.map(n => n -> o.counts.getOrElse(n, 0.0)).toMap
    def rate(n: Double, ms: Double) = if (ms > 0) n / ms * 1000 else 0.0
    val jobs = Runner.sparkLayers.map { case (m, prefix) => m -> tr.sparkCount(opId, prefix).toDouble }
    times ++ c ++ jobs ++ Map(
      "walk.tokens_per_s" -> rate(c("walk.tokens"), times("walk.ms")),
      "n2v.walk_tokens_per_s" -> rate(o.counts.getOrElse("n2v.tokens", 0.0), times("n2v.walk_ms")),
      "train.tokens_per_s" -> rate(o.counts.getOrElse("train.tokens", 0.0), times("train.ms")),
      "topk.queries_per_s" -> rate(c("topk.queries"), times("topk.ms")),
      "er.match_ms" -> Pinned.erSweep.map(k => tr.selfMs(opId, s"er.ntop$k")).sum,
      "spark.jobs" -> tr.sparkCount(opId, "", 0).toDouble,
      "spark.tasks" -> tr.sparkCount(opId, "", 1).toDouble,
      "spark.failed_tasks" -> tr.sparkCount(opId, "", 2).toDouble,
      "jvm.gc_ms" -> tr.rootGcMs(opId).toDouble)
  }
}

object Runner {
  /** Per-layer time metric → span name. */
  val spanTimes: Seq[(String, String)] = Seq(
    "tokenize.shared_ms" -> "tokenize.shared", "tokenize.distinct_ms" -> "tokenize.distinct",
    "graph.edges_ms" -> "graph.edges", "csr.build_ms" -> "csr.build", "walk.ms" -> "walk",
    "n2v.walk_ms" -> "n2v.walk", "train.ms" -> "train", "harp.ms" -> "harp", "basic.ms" -> "basic",
    "topk.ms" -> "topk", "er.ms.ntop1" -> "er.ntop1", "er.ms.ntop10" -> "er.ntop10",
    "er.ms.ntop100" -> "er.ntop100", "sm.cids_ms" -> "sm.cids", "sm.base_ms" -> "sm.base",
    "quality.eval_ms" -> "quality.eval", "phase.corpus_ms" -> "corpus",
    "phase.embed_ms" -> "embed", "phase.match_ms" -> "match")

  /** End-to-end phases; each is also the name of its span. */
  val phases: Seq[String] = Seq("corpus", "embed", "match")

  /** Counts a traced op reports; 0 where the workload does not run the layer. */
  val countNames: Seq[String] = Seq(
    "graph.cells", "graph.edges", "graph.dedup_ratio", "csr.nodes.token", "csr.nodes.rid",
    "csr.nodes.cid", "walk.tokens", "walk.start_nodes", "walk.rule_ratio", "train.vocab",
    "train.rid_coverage", "topk.queries", "er.pairs", "er.f1.ntop1", "er.f1.ntop10",
    "er.f1.ntop100", "sm_f1", "er_f1", "quality_avg")

  /** Spark jobs launched where a span of this layer was innermost. */
  val sparkLayers: Seq[(String, String)] = Seq(
    "spark.jobs.tokenize" -> "tokenize.", "spark.jobs.graph" -> "graph.", "spark.jobs.csr" -> "csr.",
    "spark.jobs.walk" -> "walk", "spark.jobs.n2v" -> "n2v.", "spark.jobs.train" -> "train",
    "spark.jobs.harp" -> "harp", "spark.jobs.basic" -> "basic", "spark.jobs.topk" -> "topk",
    "spark.jobs.sm" -> "sm.")

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def medians(rows: Seq[Map[String, Double]]): Map[String, Double] =
    rows.flatMap(_.keys).distinct.map(k => k -> median(rows.map(_.getOrElse(k, 0.0)))).toMap

  /** Differences between a reference op's outputs and another op's. */
  def diff(ref: Map[String, Any], got: Map[String, Any]): Seq[String] =
    (ref.keySet ++ got.keySet).toSeq.sorted.flatMap { k =>
      if (ref.get(k) == got.get(k)) None
      else Some(s"output $k: ${ref.get(k).orNull} then ${got.get(k).orNull}")
    }
}
