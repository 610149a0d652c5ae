package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Process-wide resource counters: Spark jobs/tasks seen by a listener the
  * benchmark registers, JVM GC time and bytes allocated by all threads. */
final class Counters(sc: SparkContext) {

  /** Spark local property that tags every job with the span that ran it. */
  val SpanKey = "perfbench.span"

  private val jobsStarted = new AtomicLong
  private val jobsEnded   = new AtomicLong
  private val tasks       = new AtomicLong
  private val failed      = new AtomicLong
  /** span id → (jobs, tasks, failed tasks) launched while it was innermost. */
  private val perSpan  = new ConcurrentHashMap[Int, Array[Long]]()
  private val stageSpan = new ConcurrentHashMap[Int, Int]()

  private def bump(span: Int, i: Int): Unit =
    perSpan.computeIfAbsent(span, _ => new Array[Long](3)).synchronized {
      perSpan.get(span)(i) += 1
    }

  sc.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      jobsStarted.incrementAndGet()
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt)
      span.foreach { s =>
        bump(s, 0)
        e.stageIds.foreach(stageSpan.put(_, s))
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      val bad = e.reason != org.apache.spark.Success
      if (bad) failed.incrementAndGet()
      Option(stageSpan.get(e.stageId)).foreach { s => bump(s, 1); if (bad) bump(s, 2) }
    }
  })

  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def allocatedBytes: Long = threads.getTotalThreadAllocatedBytes
  def gcMs: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  /** CPU time of the whole JVM process (all threads, JIT and GC included). */
  def cpuNs: Long = os.getProcessCpuTime
  private val jit = ManagementFactory.getCompilationMXBean
  /** Time the JIT compiler threads have spent compiling. */
  def jitMs: Long = jit.getTotalCompilationTime
  /** Classes Spark SQL has generated and compiled (misses of its code cache). */
  def codegens: Long = org.apache.spark.metrics.source.CodegenMetrics.METRIC_COMPILATION_TIME.getCount

  /** Listener events are delivered asynchronously; wait until every job that
    * started has ended and the task count stops moving. */
  def quiesce(): Unit = {
    val deadline = System.nanoTime() + 5_000_000_000L
    var last = -1L
    while (System.nanoTime() < deadline) {
      val now = tasks.get()
      if (jobsStarted.get() == jobsEnded.get() && now == last) return
      last = now
      Thread.sleep(20)
    }
  }

  def spanCounts(span: Int): (Long, Long, Long) =
    Option(perSpan.get(span)).map(a => (a(0), a(1), a(2))).getOrElse((0L, 0L, 0L))
}

/** One timed layer boundary. `op` groups the spans of one benchmark op. */
final case class Span(id: Int, name: String, parent: Int, op: Int,
                      startNs: Long, endNs: Long, gcMs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Span recorder. When disabled, [[span]] runs its body and records
  * nothing, so the untraced and traced ops execute the same calls. Spans are
  * kept in memory and written out when the benchmark ends. */
final class Tracer(var enabled: Boolean, sc: SparkContext, counters: Counters) {
  val spans = ArrayBuffer.empty[Span]
  private var nextId = 1
  private var current = 0
  private var op = 0

  def beginOp(id: Int): Unit = { op = id; current = 0 }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = current
      current = id
      sc.setLocalProperty(counters.SpanKey, id.toString)
      val gc0 = counters.gcMs
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans += Span(id, name, parent, op, t0, t1, counters.gcMs - gc0)
        current = parent
        sc.setLocalProperty(counters.SpanKey, if (parent == 0) null else parent.toString)
      }
    }

  private def opSpans(opId: Int): Seq[Span] = spans.iterator.filter(_.op == opId).toSeq

  /** Total duration (ms) of the spans of `opId` named `name`. */
  def total(opId: Int, name: String): Double = opSpans(opId).filter(_.name == name).map(_.ms).sum

  /** Self time: duration minus the part covered by child spans. */
  def selfMs(opId: Int, name: String): Double = {
    val os = opSpans(opId)
    os.filter(_.name == name).map { s =>
      s.ms - os.filter(_.parent == s.id).map(_.ms).sum
    }.sum
  }

  /** GC time during the top-level spans of `opId`. */
  def rootGcMs(opId: Int): Long = opSpans(opId).filter(_.parent == 0).map(_.gcMs).sum

  /** Spark jobs (`which` = 0), tasks (1) or failed tasks (2) of the spans of
    * `opId` whose name starts with `prefix`, counted where the span was
    * innermost. Jobs outside every span (the checks) are not counted. */
  def sparkCount(opId: Int, prefix: String, which: Int = 0): Long =
    opSpans(opId).filter(_.name.startsWith(prefix)).map { s =>
      val c = counters.spanCounts(s.id); Seq(c._1, c._2, c._3)(which)
    }.sum

  def toJson: String = spans.map { s =>
    val (j, t, f) = counters.spanCounts(s.id)
    Json.obj(Seq("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "op" -> s.op,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "gc_ms" -> s.gcMs,
      "spark_jobs" -> j, "spark_tasks" -> t, "spark_failed_tasks" -> f))
  }.mkString("[\n", ",\n", "\n]\n")
}

/** Minimal JSON rendering for the benchmark's flat outputs. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def value(v: Any): String = v match {
    case null => "null"
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => value(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  def obj(kv: Seq[(String, Any)]): String =
    kv.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")
}
